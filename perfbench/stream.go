package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"strings"
	"time"

	"circuitfold/internal/aig"
	"circuitfold/internal/cio"
	"circuitfold/internal/gen"
	"circuitfold/internal/seq"
)

// PCG stream selectors, one per seeded input stream.
const (
	streamEngineOrder uint64 = iota + 1
	streamServeArrivals
	streamServeNetlists
)

// Shape of serve-mixed's traffic.
const (
	// serveRate is the open-loop phase's offered load in jobs per
	// second, about a third of the 420 jobs/s foldd -workers 2 completed
	// on this mix over two connections on a 2-CPU host. Not half: foldd
	// keeps every job in memory, and at half a run took its RSS to about
	// 0.9 GB.
	serveRate = 150.0
	// closedPerSecond sizes the closed-loop phase: this many jobs per
	// second of the run, about a quarter of the run at 420 jobs/s.
	closedPerSecond = 100
	// closedSegments splits the closed-loop phase into equal segments;
	// its throughput is the median segment's.
	closedSegments = 10
	// serveT folds every uploaded netlist by four frames.
	serveT = 4
	// fracFresh and fracRecent split arrivals; the rest are old repeats.
	fracFresh  = 0.45
	fracRecent = 0.45
	// recentWindow is how far back a recent repeat reaches, in fresh
	// specs: well inside the result cache.
	recentWindow = 32
	// oldMargin is how many newer specs an old repeat has behind it:
	// more than the result cache's 512 entries, so it is served from the
	// checkpoint store.
	oldMargin = 640
	// Size of the gen.Random netlists.
	netPIs, netPOs, netAnds = 32, 12, 400
)

type arrivalKind int

const (
	kindFresh arrivalKind = iota
	kindRecent
	kindOld
)

func (k arrivalKind) String() string { return [...]string{"fresh", "recent", "old"}[k] }

// arrival is one scheduled submission.
type arrival struct {
	Due  time.Duration // after the measured phase starts
	Spec int           // index into servePlan.Specs
	Kind arrivalKind
}

// servePlan is serve-mixed's whole input: the specs, the history
// submitted before measuring (Specs[:History], oldest first), the
// closed-loop phase's submissions in order, and the open-loop phase's
// scheduled arrivals.
type servePlan struct {
	Specs    []netlistSpec
	History  int
	Closed   []arrival // Due is unused
	Arrivals []arrival
}

// netlistSpec is one uploaded circuit: the generated graph and its
// netlist text.
type netlistSpec struct {
	G            *aig.Graph
	Format, Text string
}

// makeServePlan draws the closed-loop phase's closed submissions and a
// Poisson arrival schedule at rate jobs per second over the open-loop
// phase's length open, both with the same mix, then the specs they
// need: enough history for every old repeat to reach a distinct spec
// oldMargin submissions deep, and one fresh netlist per fresh
// submission. The closed-loop phase runs first.
func makeServePlan(seed uint64, closed int, open time.Duration, rate float64) (servePlan, error) {
	rng := rand.New(rand.NewPCG(seed, streamServeArrivals))
	nOld := 0
	kind := func() arrivalKind {
		switch u := rng.Float64(); {
		case u < fracFresh:
			return kindFresh
		case u < fracFresh+fracRecent:
			return kindRecent
		}
		nOld++
		return kindOld
	}
	plan := servePlan{Closed: make([]arrival, closed)}
	for i := range plan.Closed {
		plan.Closed[i].Kind = kind()
	}
	for t := rng.ExpFloat64() / rate; t < open.Seconds(); t += rng.ExpFloat64() / rate {
		plan.Arrivals = append(plan.Arrivals, arrival{Due: time.Duration(t * float64(time.Second)), Kind: kind()})
	}
	plan.History = oldMargin + nOld
	// submitted lists fresh specs in submission order; old repeats take
	// the oldest history specs, each once, in shuffled order.
	submitted := make([]int, plan.History, plan.History+closed+len(plan.Arrivals))
	for i := range submitted {
		submitted[i] = i
	}
	oldPool := rng.Perm(nOld)
	next := plan.History
	for _, phase := range [][]arrival{plan.Closed, plan.Arrivals} {
		for i := range phase {
			a := &phase[i]
			switch a.Kind {
			case kindFresh:
				a.Spec = next
				submitted = append(submitted, next)
				next++
			case kindRecent:
				a.Spec = submitted[len(submitted)-1-rng.IntN(recentWindow)]
			case kindOld:
				a.Spec, oldPool = oldPool[0], oldPool[1:]
			}
		}
	}
	var err error
	plan.Specs, err = makeNetlists(seed, next)
	return plan, err
}

// makeNetlists writes n seeded gen.Random circuits, rotating through
// the upload formats.
func makeNetlists(seed uint64, n int) ([]netlistSpec, error) {
	rng := rand.New(rand.NewPCG(seed, streamServeNetlists))
	formats := cio.Formats()
	specs := make([]netlistSpec, n)
	for i := range specs {
		g := gen.Random(rng.Uint64(), netPIs, netPOs, netAnds)
		format := formats[i%len(formats)]
		var buf bytes.Buffer
		var err error
		switch format {
		case cio.FormatAAG:
			err = cio.WriteAAG(&buf, seq.Combinational(g))
		case cio.FormatBLIF:
			err = cio.WriteBLIF(&buf, seq.Combinational(g), fmt.Sprintf("r%d", i))
		case cio.FormatBench:
			err = writeBench(&buf, g)
		default:
			err = fmt.Errorf("no writer for netlist format %q", format)
		}
		if err != nil {
			return nil, err
		}
		specs[i] = netlistSpec{G: g, Format: format, Text: buf.String()}
	}
	return specs, nil
}

// writeBench writes a combinational AIG as an ISCAS BENCH netlist; the
// program reads BENCH but has no writer.
func writeBench(w *bytes.Buffer, g *aig.Graph) error {
	if g.NumPIs() == 0 {
		return fmt.Errorf("bench: circuit has no inputs")
	}
	name := func(l aig.Lit) string {
		var s string
		switch id := l.Node(); {
		case id == 0:
			s = "zero"
		case g.IsPI(id):
			s = fmt.Sprintf("i%d", g.PIIndex(id))
		default:
			s = fmt.Sprintf("n%d", id)
		}
		if l.Compl() {
			return s + "_n"
		}
		return s
	}
	var body strings.Builder
	inverted := map[int]bool{}
	invert := func(l aig.Lit) {
		if l.Compl() && !inverted[l.Node()] {
			inverted[l.Node()] = true
			fmt.Fprintf(&body, "%s = NOT(%s)\n", name(l), name(l.Not()))
		}
	}
	for i := 0; i < g.NumPIs(); i++ {
		fmt.Fprintf(w, "INPUT(i%d)\n", i)
	}
	for i := 0; i < g.NumPOs(); i++ {
		fmt.Fprintf(w, "OUTPUT(o%d)\n", i)
	}
	fmt.Fprintf(&body, "zero = XOR(i0, i0)\n")
	for id := 1; id < g.NumNodes(); id++ {
		if !g.IsAnd(id) {
			continue
		}
		a, b := g.Fanins(id)
		invert(a)
		invert(b)
		fmt.Fprintf(&body, "n%d = AND(%s, %s)\n", id, name(a), name(b))
	}
	for i := 0; i < g.NumPOs(); i++ {
		l := g.PO(i)
		invert(l)
		fmt.Fprintf(&body, "o%d = BUFF(%s)\n", i, name(l))
	}
	w.WriteString(body.String())
	return nil
}
