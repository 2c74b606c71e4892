package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"circuitfold"
	"circuitfold/internal/core"
	"circuitfold/internal/eqcheck"
	"circuitfold/internal/exp"
	"circuitfold/internal/fsm"
	"circuitfold/internal/lutmap"
	"circuitfold/internal/obs"
	"circuitfold/internal/pipeline"
)

const (
	// setupRepeats is how many set-up samples a run takes; setup_s is
	// their median.
	setupRepeats = 41
	// verifyTrials is the random-simulation depth of eqcheck.VerifyFold
	// (inputs of at most 12 bits are checked exhaustively regardless).
	verifyTrials = 256
	// lutK is the LUT size of the quality counts, as in the paper.
	lutK = 6
	// widePins is the pin limit that sets fold-wide's folding numbers.
	widePins = 200
)

// foldInput is one (circuit, T) pair of an engine workload.
type foldInput struct {
	name string
	T    int
	g    *circuitfold.Circuit
}

func (in foldInput) String() string { return fmt.Sprintf("%s/T=%d", in.name, in.T) }

// table3Pairs are the Table III (circuit, T) pairs that finish well
// inside the default bounds.
var table3Pairs = []struct {
	name string
	T    int
}{
	{"64-adder", 16},
	{"arbiter", 16}, {"arbiter", 8}, {"arbiter", 4},
	{"e64", 16}, {"e64", 8}, {"e64", 4},
	{"i2", 16}, {"i2", 8}, {"i2", 4},
	{"i3", 8}, {"i3", 4},
	{"i4", 8}, {"i4", 4},
	{"i6", 16},
}

// wideCircuits are fold-wide's circuits, each folded at the Table II
// minimum T for widePins pins.
var wideCircuits = []string{"memctrl", "b22_C", "voter", "g1296", "des", "i10", "max", "128-adder"}

func buildTable3() ([]foldInput, error) {
	built := map[string]*circuitfold.Circuit{}
	ins := make([]foldInput, 0, len(table3Pairs))
	for _, p := range table3Pairs {
		g, ok := built[p.name]
		if !ok {
			var err error
			if g, err = circuitfold.Benchmark(p.name); err != nil {
				return nil, err
			}
			built[p.name] = g
		}
		ins = append(ins, foldInput{p.name, p.T, g})
	}
	return ins, nil
}

func buildWide() ([]foldInput, error) {
	ins := make([]foldInput, 0, len(wideCircuits))
	for _, name := range wideCircuits {
		g, err := circuitfold.Benchmark(name)
		if err != nil {
			return nil, err
		}
		ins = append(ins, foldInput{name, exp.MinFrames(g.NumPIs(), widePins), g})
	}
	return ins, nil
}

// layerCounts accumulates the program's own counters over traced ops.
type layerCounts struct {
	sum  map[string]float64 // summed over ops
	peak map[string]float64 // maximum over ops
}

func newLayerCounts() *layerCounts {
	return &layerCounts{sum: map[string]float64{}, peak: map[string]float64{}}
}

func (c *layerCounts) add(name string, v float64) { c.sum[name] += v }

func (c *layerCounts) max(name string, v float64) {
	if v > c.peak[name] {
		c.peak[name] = v
	}
}

// engine is a closed-loop workload with one client calling the fold API.
type engine struct {
	build func() ([]foldInput, error)
	// setupBatch is how many builds one set-up sample times, enough for
	// a sample of tens of milliseconds.
	setupBatch int
	// fold is the timed operation, exactly as a user calls it.
	fold func(in foldInput) (*core.Result, error)
	// traced is fold split at its layer boundaries, one span per call;
	// reference is the single-call fold the split must reproduce, fold
	// itself when nil.
	traced    func(in foldInput, tr *tracer, op int, c *layerCounts) (*core.Result, error)
	reference func(in foldInput) (*core.Result, error)
}

// table3 folds with circuitfold.Functional in the Table III
// configuration: reordering, minimization, one-hot states.
var table3 = engine{
	build:      buildTable3,
	setupBatch: 64,
	fold: func(in foldInput) (*core.Result, error) {
		return circuitfold.Functional(in.g, in.T, circuitfold.DefaultOptions())
	},
	traced: tracedFunctional,
}

// tracedFunctional replays circuitfold.Functional with DefaultOptions
// as its four stage calls, under a run whose metrics registry collects
// the BDD and SAT counters.
func tracedFunctional(in foldInput, tr *tracer, op int, c *layerCounts) (*core.Result, error) {
	opt := circuitfold.DefaultOptions()
	fo := core.DefaultFunctionalOptions()
	reg := obs.NewRegistry()
	run := pipeline.NewRunObserved(nil, pipeline.Budget{Wall: opt.Timeout}, &obs.Observer{Metrics: reg})

	sp := tr.begin("schedule", op, op)
	sched, err := core.PinScheduleRun(in.g, in.T, core.ScheduleOptions{Reorder: opt.Reorder}, run)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("tff", op, op)
	machine, states, err := core.TimeFrameFold(in.g, sched, fo.Workers, run)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	mo := fo.MinOpts
	mo.Timeout = opt.Timeout
	if rem, ok := run.Remaining(); ok && rem < mo.Timeout {
		mo.Timeout = rem
	}
	mo.Stop = run.Check
	mo.Metrics = reg
	sp = tr.begin("minimize", op, op)
	minimized, err := fsm.Minimize(machine, mo)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("encode", op, op)
	circuit, err := fsm.Encode(minimized, fsm.OneHotState)
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	c.add("bdd.reorder_swaps", float64(reg.Counter(obs.MBDDReorderSwaps).Value()))
	c.add("bdd.cache_hits", float64(reg.Counter(obs.MBDDCacheHits).Value()))
	c.add("bdd.cache_misses", float64(reg.Counter(obs.MBDDCacheMisses).Value()))
	c.max("bdd.peak_live_nodes", float64(reg.Gauge(obs.MBDDLiveNodes).Peak()))
	c.add("sat.conflicts", float64(reg.Counter(obs.MSATConflicts).Value()))
	c.add("tff.states", float64(states))
	c.add("fsm.states_min", float64(minimized.NumStates()))
	return &core.Result{
		Seq:       circuit,
		T:         in.T,
		InSched:   sched.InSlot,
		OutSched:  sched.OutSlot,
		States:    states,
		StatesMin: minimized.NumStates(),
	}, nil
}

// wide folds with circuitfold.Structural (binary counter) and then runs
// the default post-fold SAT sweep over the folded circuit's core.
var wide = engine{
	build:      buildWide,
	setupBatch: 2,
	fold: func(in foldInput) (*core.Result, error) {
		return sweptStructural(in, nil, 0, circuitfold.DefaultSweepOptions())
	},
	traced: func(in foldInput, tr *tracer, op int, c *layerCounts) (*core.Result, error) {
		reg := obs.NewRegistry()
		opt := circuitfold.DefaultSweepOptions()
		opt.Metrics = reg
		r, err := sweptStructural(in, tr, op, opt)
		c.add("sweep.sat_calls", float64(reg.Counter(obs.MSweepSATCalls).Value()))
		c.add("sweep.merges", float64(reg.Counter(obs.MSweepMerges).Value()))
		c.add("sweep.cex_rounds", float64(reg.Counter(obs.MSweepCEXRounds).Value()))
		c.add("sat.conflicts", float64(reg.Counter(obs.MSATConflicts).Value()))
		return r, err
	},
	reference: func(in foldInput) (*core.Result, error) {
		sweep := circuitfold.DefaultSweepOptions()
		return core.StructuralFold(in.g, in.T, core.StructuralOptions{Counter: core.Binary, PostOptimize: &sweep})
	},
}

func sweptStructural(in foldInput, tr *tracer, op int, sweep circuitfold.SweepOptions) (*core.Result, error) {
	sp := tr.begin("synth", op, op)
	r, err := circuitfold.Structural(in.g, in.T, circuitfold.Options{Counter: circuitfold.Binary})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("sweep", op, op)
	r.Seq = r.Seq.Transform(func(g *circuitfold.Circuit) *circuitfold.Circuit {
		return circuitfold.OptimizeWith(g, sweep)
	})
	tr.end(sp)
	return r, nil
}

func runTable3(cfg config, tail float64) (*outcome, error) { return runEngine(cfg, tail, table3) }
func runWide(cfg config, tail float64) (*outcome, error)   { return runEngine(cfg, tail, wide) }

// contentBytes encodes a fold without its stage report, whose durations
// differ between runs: equal bytes mean an identical folded circuit,
// schedule and state counts.
func contentBytes(r *core.Result) ([]byte, error) {
	c := *r
	c.Report = nil
	return core.EncodeResult(&c)
}

// runEngine sets up, then folds the inputs in seeded shuffled passes
// until the measured time is up, finishing the pass in progress so every
// input is folded equally often. The heap is collected before each timed
// fold, and again at its end inside the timed span, so each fold pays for
// collecting its own garbage and no other's. Each fold is checked outside
// its timed span: the first fold of an input with eqcheck.VerifyFold and
// a LUT count, every later one by comparing its bytes with the first.
func runEngine(cfg config, tail float64, e engine) (*outcome, error) {
	o := &outcome{metrics: zeroLayerMetrics()}
	var inputs []foldInput
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		t0 := time.Now()
		for j := 0; j < e.setupBatch; j++ {
			ins, err := e.build()
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			inputs = ins
		}
		setups = append(setups, time.Since(t0).Seconds()/float64(e.setupBatch))
	}
	o.metrics["setup_s"] = median(setups)

	var tr *tracer
	counts := newLayerCounts()
	if cfg.trace {
		tr = newTracer()
		// The split fold must reproduce the single call bit for bit.
		reference := e.reference
		if reference == nil {
			reference = e.fold
		}
		for _, in := range inputs {
			split, err := e.traced(in, nil, 0, newLayerCounts())
			if err != nil {
				o.fail("%s: split fold: %v", in, err)
				continue
			}
			ref, err := reference(in)
			if err != nil {
				o.fail("%s: single-call fold: %v", in, err)
				continue
			}
			a, errA := contentBytes(split)
			b, errB := contentBytes(ref)
			if errA != nil || errB != nil || !bytes.Equal(a, b) {
				o.fail("%s: split fold differs from the single-call fold", in)
			}
		}
	}

	first := make([][]byte, len(inputs))
	ffs := make([]float64, len(inputs))
	luts := make([]float64, len(inputs))
	check := func(i, op int, r *core.Result) {
		in := inputs[i]
		data, err := contentBytes(r)
		if err != nil {
			o.fail("%s: encode: %v", in, err)
			return
		}
		if first[i] != nil {
			if !bytes.Equal(data, first[i]) {
				o.fail("%s: fold differs from the first fold of this input", in)
			}
			return
		}
		sp := tr.begin("verify", 0, op)
		err = eqcheck.VerifyFold(in.g, r, verifyTrials, int64(cfg.seed))
		tr.end(sp)
		if err != nil {
			o.fail("%s: %v", in, err)
			return
		}
		sp = tr.begin("lutmap", 0, op)
		n, err := lutmap.Count(r.Seq.G, lutK)
		tr.end(sp)
		if err != nil {
			o.fail("%s: lutmap: %v", in, err)
			return
		}
		first[i] = data
		ffs[i] = float64(r.FlipFlops())
		luts[i] = float64(n)
	}

	rng := rand.New(rand.NewPCG(cfg.seed, streamEngineOrder))
	var lats []float64
	byInput := make([][]float64, len(inputs))    // fold times, ms
	cpuByInput := make([][]float64, len(inputs)) // fold CPU times, ms
	passes := 0
	for start := time.Now(); passes == 0 || time.Since(start) < cfg.seconds; passes++ {
		for _, i := range rng.Perm(len(inputs)) {
			o.attempted++
			var (
				r   *core.Result
				err error
				d   time.Duration
			)
			// Collect the checks' garbage untimed, so each op starts on a
			// collected heap; then charge the op for collecting its own.
			runtime.GC()
			c0 := selfCPU()
			if tr == nil {
				t0 := time.Now()
				r, err = e.fold(inputs[i])
				runtime.GC()
				d = time.Since(t0)
			} else {
				op := tr.begin("op", 0, o.attempted)
				r, err = e.traced(inputs[i], tr, op, counts)
				sp := tr.begin("gc", op, o.attempted)
				runtime.GC()
				tr.end(sp)
				d = tr.end(op)
			}
			cpu := selfCPU() - c0
			if err != nil {
				o.fail("%s: %v", inputs[i], err)
				continue
			}
			lats = append(lats, ms(d))
			byInput[i] = append(byInput[i], ms(d))
			cpuByInput[i] = append(cpuByInput[i], ms(cpu))
			check(i, o.attempted, r)
		}
	}
	for i, f := range first {
		if f == nil {
			o.fail("%s: no fold passed its checks", inputs[i])
		}
	}

	// A pass at every input's median fold time: one slow fold, slowed
	// by something outside the program, moves no input's median.
	passMS, passCPU := 0.0, 0.0
	for i := range inputs {
		passMS += median(byInput[i])
		passCPU += median(cpuByInput[i])
	}
	o.metrics["ops_per_s"] = ratio(float64(len(inputs)), passMS/1000)
	o.metrics["cpu_ms"] = passCPU / float64(len(inputs))
	o.metrics["ffs"] = mean(ffs)
	o.metrics["luts"] = mean(luts)
	o.metrics["peak_rss_mb"] = selfPeakRSSMB()
	p50, q, tl := latencies(lats, tail)
	o.note("%d ops in %d passes of %d inputs: latency p50 %.3f ms, p%g %.3f ms", len(lats), passes, len(inputs), p50, q*100, tl)
	if tr != nil {
		o.metrics["op.p50_ms"] = p50
		o.metrics["op.tail_ms"] = tl
		nOps := float64(len(lats))
		self := tr.selfByName()
		for _, name := range []string{"schedule", "tff", "minimize", "encode", "synth", "sweep", "gc"} {
			o.metrics[name+".ms"] = ms(self[name]) / nOps
		}
		opDur, opSelf := tr.total("op"), self["op"]
		o.metrics["op.self_ms"] = ms(opSelf) / nOps
		o.metrics["trace.coverage"] = 1 - ratio(float64(opSelf), float64(opDur))
		o.metrics["verify.ms"] = ms(self["verify"]) / float64(len(inputs))
		o.metrics["lutmap.ms"] = ms(self["lutmap"]) / float64(len(inputs))
		for _, name := range []string{"bdd.reorder_swaps", "tff.states", "fsm.states_min", "sat.conflicts",
			"sweep.sat_calls", "sweep.merges", "sweep.cex_rounds"} {
			o.metrics[name] = counts.sum[name] / nOps
		}
		hits, misses := counts.sum["bdd.cache_hits"], counts.sum["bdd.cache_misses"]
		o.metrics["bdd.cache_hit_ratio"] = ratio(hits, hits+misses)
		o.metrics["bdd.peak_live_nodes"] = counts.peak["bdd.peak_live_nodes"]
		o.metrics["sweep.merge_ratio"] = ratio(counts.sum["sweep.merges"], counts.sum["sweep.sat_calls"])
		path := filepath.Join(cfg.work, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		o.note("spans written to %s", path)
	}
	return o, nil
}

// selfCPU is the CPU time this process has used, user and system.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// selfPeakRSSMB is this process's peak resident set, in MiB.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return maxRSSMB(ru.Maxrss)
}
