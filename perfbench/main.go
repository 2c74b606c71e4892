// Command perfbench is circuitfold's end-to-end benchmark. It runs one
// workload for a fixed time against the public fold API or a foldd child
// process, checks every output, and prints its metrics as one JSON line:
//
//	perfbench -workload fold-table3 -seed 1 -seconds 25 -trace 0
//
// With -trace 0 the line holds the end-to-end metrics; with -trace 1 the
// same workload runs with spans around each layer call and the line holds
// the per-layer metrics. Normally started through run.sh, which builds
// this binary and foldd from the checkout first. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// metricDef names one reported metric. The lists below are mirrored in
// the repository's BENCHMARK.json (a test keeps the two in step).
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics a user of the folder or of foldd sees,
// reported by every workload with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"cpu_ms", "ms", "lower"},
	{"ffs", "count", "lower"},
	{"luts", "count", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the traced run's metrics. Every workload reports all of
// them; a layer the workload never calls reads 0.
var perLayer = []metricDef{
	{"op.p50_ms", "ms", "lower"},
	{"op.tail_ms", "ms", "lower"},
	{"op.self_ms", "ms", "lower"},
	{"trace.coverage", "ratio", "higher"},
	{"schedule.ms", "ms", "lower"},
	{"tff.ms", "ms", "lower"},
	{"minimize.ms", "ms", "lower"},
	{"encode.ms", "ms", "lower"},
	{"synth.ms", "ms", "lower"},
	{"sweep.ms", "ms", "lower"},
	{"gc.ms", "ms", "lower"},
	{"verify.ms", "ms", "lower"},
	{"lutmap.ms", "ms", "lower"},
	{"bdd.reorder_swaps", "count", "lower"},
	{"bdd.cache_hit_ratio", "ratio", "higher"},
	{"bdd.peak_live_nodes", "count", "lower"},
	{"tff.states", "count", "lower"},
	{"fsm.states_min", "count", "lower"},
	{"sat.conflicts", "count", "lower"},
	{"sweep.sat_calls", "count", "lower"},
	{"sweep.merges", "count", "higher"},
	{"sweep.merge_ratio", "ratio", "higher"},
	{"sweep.cex_rounds", "count", "lower"},
	{"http.submit_ms", "ms", "lower"},
	{"job.queue_wait_ms", "ms", "lower"},
	{"job.run_ms", "ms", "lower"},
	{"http.result_ms", "ms", "lower"},
	{"cache.hit_ratio", "ratio", "higher"},
	{"dedup.attach_ratio", "ratio", "higher"},
	{"store.resume_ratio", "ratio", "higher"},
	{"journal.records_per_job", "count", "lower"},
	{"job.rejected", "count", "lower"},
	{"gen.late_ms", "ms", "lower"},
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	foldd    string // foldd binary (serve-mixed)
	work     string // directory for traces and foldd state
	commit   string
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int
	problems          []string           // the first few failures, for the log
	metrics           map[string]float64 // by metric name
	notes             []string           // human-readable lines (sample counts, ...)
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 10 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// zeroLayerMetrics starts every per-layer metric at 0, the reading of a
// layer the workload does not call.
func zeroLayerMetrics() map[string]float64 {
	m := make(map[string]float64, len(perLayer)+len(endToEnd))
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	return m
}

// workload is one named traffic mix.
type workload struct {
	name string
	// tail is the op latency percentile printed beside the median: the
	// highest with at least ten samples beyond it in a 30 s run.
	tail float64
	run  func(cfg config, tail float64) (*outcome, error)
}

var workloads = []workload{
	{"fold-table3", 0.90, runTable3},
	{"fold-wide", 0.80, runWide},
	{"serve-mixed", 0.99, runServe},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// result is the final stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// buildResult selects the reported metric set from what the workload
// measured. A metric the workload did not produce is a benchmark bug.
func buildResult(o *outcome, trace bool) (result, error) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	res := result{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := o.metrics[d.Name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("no operation was attempted")
	}
	return res, nil
}

func main() {
	var (
		cfg     config
		seed    int64
		seconds int
		trace   int
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload name")
	flag.Int64Var(&seed, "seed", 1, "input seed")
	flag.IntVar(&seconds, "seconds", 25, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs traced and reports per-layer metrics")
	flag.StringVar(&cfg.foldd, "foldd", "", "foldd binary (serve-mixed)")
	flag.StringVar(&cfg.work, "work", ".bench_build", "directory for traces and foldd state")
	flag.StringVar(&cfg.commit, "commit", "unknown", "source commit, recorded with the host")
	flag.Parse()
	cfg.seed = uint64(seed)
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1

	w, ok := lookupWorkload(cfg.workload)
	if !ok || seconds < 1 || (trace != 0 && trace != 1) {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %v), -seconds >= 1 and -trace 0|1\n", names)
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}

	host := fingerprint(cfg)
	hostLine, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hostLine)

	o, err := w.run(cfg, w.tail)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	for _, n := range o.notes {
		fmt.Println(n)
	}
	for _, p := range o.problems {
		fmt.Fprintf(os.Stderr, "perfbench: FAIL %s\n", p)
	}
	res, err := buildResult(o, cfg.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
