package main

import (
	"encoding/json"
	"math/rand/v2"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"circuitfold/internal/cio"
	"circuitfold/internal/eqcheck"
)

func TestServePlanDependsOnlyOnSeed(t *testing.T) {
	a, err := makeServePlan(7, 100, 2*time.Second, 100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := makeServePlan(7, 100, 2*time.Second, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Arrivals, b.Arrivals) || !reflect.DeepEqual(a.Closed, b.Closed) ||
		a.History != b.History || !sameTexts(a.Specs, b.Specs) {
		t.Fatal("two plans from seed 7 differ")
	}
	c, err := makeServePlan(8, 100, 2*time.Second, 100)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Arrivals, c.Arrivals) || reflect.DeepEqual(a.Closed, c.Closed) || sameTexts(a.Specs, c.Specs) {
		t.Fatal("seeds 7 and 8 gave the same plan")
	}
}

func sameTexts(a, b []netlistSpec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Format != b[i].Format || a[i].Text != b[i].Text {
			return false
		}
	}
	return true
}

func TestEngineOrderDependsOnlyOnSeed(t *testing.T) {
	perm := func(seed uint64) []int {
		return rand.New(rand.NewPCG(seed, streamEngineOrder)).Perm(len(table3Pairs))
	}
	if !reflect.DeepEqual(perm(3), perm(3)) {
		t.Fatal("two orders from seed 3 differ")
	}
	if reflect.DeepEqual(perm(3), perm(4)) {
		t.Fatal("seeds 3 and 4 gave the same order")
	}
}

func TestServePlanShape(t *testing.T) {
	p, err := makeServePlan(1, 1000, 10*time.Second, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Closed) != 1000 {
		t.Fatalf("%d closed-loop submissions, want 1000", len(p.Closed))
	}
	if n := len(p.Arrivals); n < 900 || n > 1100 {
		t.Fatalf("%d arrivals in 10 s at 100/s", n)
	}
	oldSeen := map[int]bool{}
	for _, phase := range [][]arrival{p.Closed, p.Arrivals} {
		count := map[arrivalKind]int{}
		for _, a := range phase {
			count[a.Kind]++
			switch a.Kind {
			case kindOld:
				if a.Spec >= p.History-oldMargin || oldSeen[a.Spec] {
					t.Fatalf("old repeat of spec %d: not %d deep in a history of %d, or repeated", a.Spec, oldMargin, p.History)
				}
				oldSeen[a.Spec] = true
			case kindRecent:
				if a.Spec < p.History-recentWindow {
					t.Fatalf("recent repeat of spec %d reaches past the recent window", a.Spec)
				}
			}
		}
		n := float64(len(phase))
		if f := float64(count[kindFresh]) / n; f < fracFresh-0.05 || f > fracFresh+0.05 {
			t.Fatalf("fresh share %.2f, want about %.2f", f, fracFresh)
		}
	}
}

func TestNetlistsParseToTheirCircuits(t *testing.T) {
	specs, err := makeNetlists(5, 6)
	if err != nil {
		t.Fatal(err)
	}
	formats := map[string]bool{}
	for i, s := range specs {
		formats[s.Format] = true
		c, err := cio.ReadNetlist(s.Format, strings.NewReader(s.Text))
		if err != nil {
			t.Fatalf("spec %d (%s): %v", i, s.Format, err)
		}
		if c.G.NumPIs() != s.G.NumPIs() || c.G.NumPOs() != s.G.NumPOs() || !eqcheck.SimEquivalent(c.G, s.G, 16, 1) {
			t.Fatalf("spec %d (%s) does not parse back to its circuit", i, s.Format)
		}
	}
	if len(formats) != len(cio.Formats()) {
		t.Fatalf("netlists use formats %v, want all of %v", formats, cio.Formats())
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or repeated", d.Name)
		}
		seen[d.Name] = true
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q is malformed or repeated", w.name)
		}
		seen[w.name] = true
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, code reports %v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, code reports %v", bj.PerLayer, perLayer)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, code runs %v", names, want)
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	xs := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // reversed, so percentile must sort
		}
		return s
	}
	for _, c := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{99, 0.9, false}, {100, 0.9, true},
		{999, 0.99, false}, {1000, 0.99, true},
		{19, 0.5, false}, {20, 0.5, true},
		{49, 0.8, false}, {50, 0.8, true},
	} {
		_, err := percentile(xs(c.n), c.q)
		if (err == nil) != c.ok {
			t.Errorf("p%g of %d samples: err %v, want ok=%v", c.q*100, c.n, err, c.ok)
		}
	}
	v, err := percentile(xs(101), 0.9)
	if err != nil || v != 91 {
		t.Errorf("p90 of 1..101 = %v, %v; want 91", v, err)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	// A slow run falls back to a lower percentile instead of failing.
	if _, q, _ := latencies(xs(48), 0.8); q != 0.75 {
		t.Errorf("48 samples with tail p80: reported p%g, want p75", q*100)
	}
	if _, q, _ := latencies(xs(19), 0.9); q != 0 {
		t.Errorf("19 samples: reported p%g, want none", q*100)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "a", Start: 1, End: 3},
		{ID: 3, Parent: 1, Name: "a", Start: 2, End: 5},
		{ID: 4, Parent: 1, Name: "b", Start: 8, End: 12}, // overruns the parent
	}
	self := selfTimes(spans)
	if self["op"] != 4 || self["a"] != 5 || self["b"] != 4 {
		t.Fatalf("self times %v, want op 4, a 5, b 4", self)
	}
}

// TestQualityCountsRepeat runs one pass of each engine workload twice:
// the fold-quality counts must be identical.
func TestQualityCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("folds every input of both engine workloads twice")
	}
	cfg := config{seconds: time.Nanosecond, work: t.TempDir()}
	for _, w := range []workload{workloads[0], workloads[1]} {
		cfg.workload = w.name
		var counts [2][2]float64
		for run := range counts {
			cfg.seed = uint64(run + 1)
			o, err := runEngine(cfg, 0.5, map[string]engine{"fold-table3": table3, "fold-wide": wide}[w.name])
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range o.problems {
				if !strings.HasPrefix(p, "p50") && !strings.HasPrefix(p, "tail") {
					t.Fatalf("%s: %s", w.name, p)
				}
			}
			counts[run] = [2]float64{o.metrics["ffs"], o.metrics["luts"]}
		}
		if counts[0] != counts[1] || counts[0][0] == 0 || counts[0][1] == 0 {
			t.Errorf("%s: ffs and luts %v then %v", w.name, counts[0], counts[1])
		}
	}
}
