package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"circuitfold/internal/core"
	"circuitfold/internal/eqcheck"
	"circuitfold/internal/job"
	"circuitfold/internal/lutmap"
)

const (
	// serveWorkers is the number of foldd workers, as the workload's
	// definition fixes it.
	serveWorkers = 2
	// serveVerifyRounds is the depth of the served-result check: rounds
	// of 64 random vectors through eqcheck.VerifyFoldWords, the
	// word-parallel VerifyFold, which the thousands of results of a run
	// need for the check to finish in seconds.
	serveVerifyRounds = 16
	// readyPoll is how often start-up probes /readyz without a cue.
	readyPoll = 5 * time.Millisecond
	// readyRetry is how soon start-up probes again after the cue, when
	// the listener was not yet bound.
	readyRetry = 100 * time.Microsecond
)

// daemon is a running foldd child process.
type daemon struct {
	cmd  *exec.Cmd
	dir  string
	base string
}

// readyWatch takes foldd's log and discards it, closing ready at the
// first line that contains cue: the line foldd logs when its start-up is
// done. Waking on it rather than on a polling timer keeps the timer's
// millisecond granularity out of the set-up time.
type readyWatch struct {
	cue   []byte
	ready chan struct{}
	line  []byte // the unfinished last line, until ready
}

// Start-up cues: a durable foldd is ready when its journal replay
// returns; one without a checkpoint directory when it starts listening.
const (
	cueDurable = "journal replayed"
	cueMemory  = "msg=listening"
)

func (w *readyWatch) Write(p []byte) (int, error) {
	if w.line == nil {
		return len(p), nil
	}
	w.line = append(w.line, p...)
	if bytes.Contains(w.line, w.cue) {
		close(w.ready)
		w.line = nil
	} else if i := bytes.LastIndexByte(w.line, '\n'); i >= 0 {
		w.line = append(w.line[:0], w.line[i+1:]...)
	}
	return len(p), nil
}

// startDaemon starts foldd on a free loopback port and waits until
// /readyz answers 200. With a checkpoint directory dir, foldd keeps its
// journal and FileStore there; with dir empty it keeps results in
// memory only. Start-up probes /readyz when foldd logs its start-up cue,
// then every readyRetry, and every readyPoll if the cue never comes.
func startDaemon(bin, dir string) (*daemon, time.Duration, error) {
	if bin == "" {
		return nil, 0, fmt.Errorf("no foldd binary given (-foldd)")
	}
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := []string{"-addr", addr, "-workers", strconv.Itoa(serveWorkers), "-drain-timeout", "5s"}
	cue := cueMemory
	if dir != "" {
		args = append(args, "-checkpoint-dir", dir)
		cue = cueDurable
	}
	cmd := exec.Command(bin, args...)
	watch := &readyWatch{cue: []byte(cue), ready: make(chan struct{}), line: []byte{}}
	cmd.Stderr = watch
	setParentDeathSignal(cmd)
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start foldd: %w", err)
	}
	d := &daemon{cmd: cmd, dir: dir, base: "http://" + addr}
	probe := &http.Client{Timeout: time.Second}
	cued := false
	for time.Since(t0) < 30*time.Second {
		if !cued {
			select {
			case <-watch.ready:
				cued = true
			case <-time.After(readyPoll):
			}
		}
		resp, err := probe.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		if cued {
			time.Sleep(readyRetry)
		}
	}
	d.stop()
	return nil, 0, fmt.Errorf("foldd not ready within 30s")
}

// stop sends SIGTERM, waits for the process to exit (killing it after
// 15 s), removes its checkpoint directory, if any, and returns its peak
// RSS.
func (d *daemon) stop() (peakMB float64, err error) {
	defer os.RemoveAll(d.dir)
	d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err = <-done:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-done
		err = fmt.Errorf("foldd did not drain within 15s")
	}
	// foldd installs its SIGTERM handler only after /readyz first
	// answers 200, so a daemon stopped right after set-up can die of the
	// signal instead of draining. It has no work to lose; that is a stop.
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
			err = nil
		}
	}
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		peakMB = maxRSSMB(ru.Maxrss)
	}
	return peakMB, err
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// client drives foldd's HTTP API over at most conns connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}}
}

func (c *client) get(path string) ([]byte, int, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// served is what one job returned.
type served struct {
	status job.Status
	body   []byte // the JSON-codec result
}

// fold submits spec and returns the finished job's status and result:
// POST the spec, follow the job's event stream until it closes if the
// job is not already done, then GET the result. Each call is a span.
func (c *client) fold(spec []byte, tr *tracer, op int) (served, error) {
	var s served
	sp := tr.begin("http.submit", op, op)
	resp, err := c.hc.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(spec))
	if err != nil {
		tr.end(sp)
		return s, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	tr.end(sp)
	if err != nil {
		return s, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return s, fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, &s.status); err != nil {
		return s, fmt.Errorf("submit: %w", err)
	}
	id := s.status.ID
	if s.status.State != job.StateDone {
		sp = tr.begin("wait", op, op)
		_, code, err := c.get("/v1/jobs/" + id + "/events?format=jsonl")
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("events: HTTP %d", code)
		}
		if err == nil {
			var b []byte
			b, code, err = c.get("/v1/jobs/" + id)
			if err == nil && code != http.StatusOK {
				err = fmt.Errorf("status: HTTP %d", code)
			}
			if err == nil {
				err = json.Unmarshal(b, &s.status)
			}
		}
		tr.end(sp)
		if err != nil {
			return s, fmt.Errorf("job %s: %w", id, err)
		}
	}
	if s.status.State != job.StateDone {
		return s, fmt.Errorf("job %s ended %s: %s", id, s.status.State, s.status.Error)
	}
	sp = tr.begin("http.result", op, op)
	var code int
	s.body, code, err = c.get("/v1/jobs/" + id + "/result")
	tr.end(sp)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("HTTP %d", code)
	}
	if err != nil {
		return s, fmt.Errorf("job %s result: %w", id, err)
	}
	return s, nil
}

// metrics reads foldd's OpenMetrics exposition as name → value.
func (c *client) metrics() (map[string]float64, error) {
	body, code, err := c.get("/metrics")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("metrics: HTTP %d", code)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// jobRecord is one measured arrival.
type jobRecord struct {
	ok              bool
	latency         time.Duration // from the due time to the result
	queueWait, run  time.Duration // from the job's server-side timestamps
	ranOnWorker     bool
	resumed         bool
	verdict, detail string
}

// firstResults keeps the first served result of every spec; every later
// result of the spec must be byte-identical to it.
type firstResults struct {
	mu    sync.Mutex
	bytes map[int][]byte
}

// compare stores body as spec's first result or reports whether it
// equals the stored one.
func (f *firstResults) compare(spec int, body []byte) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if prev, ok := f.bytes[spec]; ok {
		return bytes.Equal(prev, body)
	}
	f.bytes[spec] = body
	return true
}

// runServe starts foldd and submits the history. It then runs the
// closed-loop phase, whose throughput is the gated figure, and replays
// the seeded open-loop schedule for the latency notes and the traced
// per-layer figures, both over nproc connections. Results are checked
// after the measured phases.
//
// The untraced run, which gives the gated figures, runs foldd with its
// in-memory store; the traced run gives it a fresh checkpoint directory,
// so the journal and FileStore are live in the per-layer figures. On a
// shared virtual disk the fsyncs of the durable daemon swing its
// throughput far past any usable bound (see README.md).
func runServe(cfg config, tail float64) (*outcome, error) {
	o := &outcome{metrics: zeroLayerMetrics()}
	durable := cfg.trace
	if durable {
		o.note("foldd store: journal and FileStore in a fresh -checkpoint-dir")
	} else {
		o.note("foldd store: in memory (no -checkpoint-dir)")
	}
	// Set-up: start foldd several times; the last one serves the run.
	// It comes before the plan is drawn, while the benchmark's own heap
	// is small.
	var d *daemon
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		dir := ""
		if durable {
			dir = filepath.Join(cfg.work, fmt.Sprintf("foldd-%d-%d", os.Getpid(), i))
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
		dd, took, err := startDaemon(cfg.foldd, dir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if i < setupRepeats-1 {
			if _, err := dd.stop(); err != nil {
				return nil, err
			}
		} else {
			d = dd
		}
	}
	o.metrics["setup_s"] = median(setups)
	stopped := false
	defer func() {
		if !stopped {
			d.stop()
		}
	}()

	plan, err := makeServePlan(cfg.seed, closedPerSecond*int(cfg.seconds/time.Second), cfg.seconds/3, serveRate)
	if err != nil {
		return nil, err
	}
	specJSON := make([][]byte, len(plan.Specs))
	for i, s := range plan.Specs {
		spec := job.Spec{Netlist: &job.Netlist{Format: s.Format, Text: s.Text}, T: serveT, Method: job.MethodStructural}
		if specJSON[i], err = json.Marshal(spec); err != nil {
			return nil, err
		}
	}

	conns := runtime.NumCPU()
	cl := newClient(d.base, conns)
	first := &firstResults{bytes: map[int][]byte{}}

	// History: the specs a long-running daemon has already folded,
	// submitted closed-loop, oldest first.
	histStart := time.Now()
	err = closedLoop(conns, plan.History, func(i int) error {
		s, err := cl.fold(specJSON[i], nil, 0)
		if err != nil {
			return fmt.Errorf("history spec %d: %w", i, err)
		}
		first.compare(i, s.body)
		return nil
	})
	if err != nil {
		return nil, err
	}
	histTook := time.Since(histStart)

	// The client shares the CPUs with foldd: keep its own collector,
	// marking a heap of specs and results, out of the measured phases.
	gcPercent := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcPercent)

	// Closed-loop phase, in segments: each segment's throughput is its
	// completed jobs over its wall time, and foldd's CPU time per job.
	closed := make([]jobRecord, len(plan.Closed))
	var rates, cpus []float64
	for seg := 0; seg < closedSegments; seg++ {
		lo, hi := seg*len(closed)/closedSegments, (seg+1)*len(closed)/closedSegments
		runtime.GC()
		cpu0, err := procCPU(d.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		closedLoop(conns, hi-lo, func(k int) error {
			a := plan.Closed[lo+k]
			start := time.Now()
			s, err := cl.fold(specJSON[a.Spec], nil, 0)
			closed[lo+k] = serveRecord(a, s, err, start, time.Now(), first)
			return nil
		})
		wall := time.Since(t0)
		cpu1, err := procCPU(d.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		done := 0
		for _, r := range closed[lo:hi] {
			if r.ok {
				done++
			}
		}
		rates = append(rates, float64(done)/wall.Seconds())
		cpus = append(cpus, ratio(ms(cpu1-cpu0), float64(done)))
	}

	// Open-loop phase: every job is timed from its due time.
	runtime.GC()
	before, err := cl.metrics()
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	recs := make([]jobRecord, len(plan.Arrivals))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(plan.Arrivals) {
					return
				}
				a := plan.Arrivals[i]
				due := t0.Add(a.Due)
				time.Sleep(time.Until(due))
				op := tr.beginAt("job", 0, i+1, due)
				tr.end(tr.beginAt("gen.late", op, i+1, due))
				s, err := cl.fold(specJSON[a.Spec], tr, op)
				tr.end(op)
				recs[i] = serveRecord(a, s, err, due, time.Now(), first)
			}
		}()
	}
	wg.Wait()
	after, err := cl.metrics()
	if err != nil {
		return nil, err
	}
	stopped = true
	peak, err := d.stop()
	if err != nil {
		return nil, err
	}
	debug.SetGCPercent(gcPercent)

	// Checks: every distinct result decodes and folds its upload
	// correctly; repeats were compared byte for byte as they arrived.
	measured := map[int]bool{}
	kinds := map[string]int{}
	for i, r := range closed {
		o.attempted++
		a := plan.Closed[i]
		if !r.ok {
			o.fail("closed-loop job %d (%s spec %d): %s", i, a.Kind, a.Spec, r.detail)
			continue
		}
		measured[a.Spec] = true
		kinds[a.Kind.String()+"/"+r.verdict]++
	}
	var lats, waits, runs []float64
	resumed := 0
	for i, r := range recs {
		o.attempted++
		a := plan.Arrivals[i]
		if !r.ok {
			o.fail("open-loop job %d (%s spec %d): %s", i, a.Kind, a.Spec, r.detail)
			continue
		}
		measured[a.Spec] = true
		lats = append(lats, ms(r.latency))
		kinds[a.Kind.String()+"/"+r.verdict]++
		if r.resumed {
			resumed++
		}
		if r.ranOnWorker {
			waits = append(waits, ms(r.queueWait))
			runs = append(runs, ms(r.run))
		}
	}
	checkStart := time.Now()
	var ffs, luts []float64
	var mu sync.Mutex
	specs := make(chan int)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for spec := range specs {
				res, err := checkServed(plan.Specs[spec], first.bytes[spec], cfg.seed)
				n := 0
				if err == nil && measured[spec] {
					if n, err = lutmap.Count(res.Seq.G, lutK); err != nil {
						err = fmt.Errorf("lutmap: %w", err)
					}
				}
				mu.Lock()
				switch {
				case err != nil:
					o.fail("spec %d: %v", spec, err)
				case measured[spec]:
					ffs = append(ffs, float64(res.FlipFlops()))
					luts = append(luts, float64(n))
				}
				mu.Unlock()
			}
		}()
	}
	for spec := range first.bytes {
		specs <- spec
	}
	close(specs)
	wg.Wait()

	o.metrics["ops_per_s"] = median(rates)
	o.metrics["cpu_ms"] = median(cpus)
	o.metrics["ffs"] = mean(ffs)
	o.metrics["luts"] = mean(luts)
	o.metrics["peak_rss_mb"] = peak
	o.note("closed loop: %d jobs over %d connections in %d segments: %s jobs/s, foldd CPU %s ms/job",
		len(closed), conns, closedSegments, fmtAll(rates), fmtAll(cpus))
	jobs := float64(len(lats))
	p50, q, tl := latencies(lats, tail)
	p90, _ := percentile(lats, 0.9)
	o.note("open loop: %d jobs at %.0f/s offered: latency p50 %.3f ms, p90 %.3f ms, p%g %.3f ms",
		len(lats), serveRate, p50, p90, q*100, tl)
	o.note("arrival kind/cache verdict: %v; open-loop jobs resumed from the store: %d", kinds, resumed)
	o.note("history: %d cold jobs in %v closed-loop (%.0f jobs/s); checks of %d distinct results took %v",
		plan.History, histTook.Round(time.Millisecond), float64(plan.History)/histTook.Seconds(),
		len(first.bytes), time.Since(checkStart).Round(time.Millisecond))
	if tr == nil {
		return o, nil
	}
	self := tr.selfByName()
	o.metrics["op.p50_ms"] = p50
	o.metrics["op.tail_ms"] = tl
	o.metrics["op.self_ms"] = ms(self["job"]) / jobs
	o.metrics["trace.coverage"] = 1 - ratio(float64(self["job"]), float64(tr.total("job")))
	o.metrics["http.submit_ms"] = ms(self["http.submit"]) / jobs
	o.metrics["http.result_ms"] = ms(self["http.result"]) / jobs
	o.metrics["job.queue_wait_ms"] = mean(waits)
	o.metrics["job.run_ms"] = mean(runs)
	o.metrics["gen.late_ms"] = ms(self["gen.late"]) / jobs
	delta := func(name string) float64 { return after["foldd_"+name+"_total"] - before["foldd_"+name+"_total"] }
	o.metrics["cache.hit_ratio"] = delta("job_cache_hits") / jobs
	o.metrics["dedup.attach_ratio"] = delta("job_dedup_attached") / jobs
	o.metrics["journal.records_per_job"] = delta("journal_records") / jobs
	o.metrics["job.rejected"] = delta("job_rejected")
	o.metrics["store.resume_ratio"] = float64(resumed) / jobs
	path := filepath.Join(cfg.work, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	o.note("spans written to %s", path)
	return o, nil
}

// closedLoop calls do(0) … do(n-1) from conns goroutines, each taking
// the next index as soon as its last call returns. It stops handing out
// indexes after the first error, and returns it.
func closedLoop(conns, n int, do func(i int) error) error {
	var (
		next  atomic.Int64
		mu    sync.Mutex
		first error
		wg    sync.WaitGroup
	)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := do(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					next.Store(int64(n))
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// fmtAll formats a few figures for a note line.
func fmtAll(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 1, 64)
	}
	return strings.Join(parts, " ")
}

// serveRecord turns one arrival's outcome into its record, comparing the
// result with the spec's first result.
func serveRecord(a arrival, s served, err error, due, end time.Time, first *firstResults) jobRecord {
	r := jobRecord{latency: end.Sub(due)}
	if err != nil {
		r.detail = err.Error()
		return r
	}
	if !first.compare(a.Spec, s.body) {
		r.detail = "result differs from the first fold of this spec"
		return r
	}
	st := s.status
	r.ok, r.verdict, r.resumed = true, st.Cache, st.ResumedResult
	created, errC := time.Parse(time.RFC3339Nano, st.CreatedAt)
	started, errS := time.Parse(time.RFC3339Nano, st.StartedAt)
	finished, errF := time.Parse(time.RFC3339Nano, st.FinishedAt)
	if errC == nil && errS == nil && errF == nil {
		r.ranOnWorker = true
		r.queueWait, r.run = started.Sub(created), finished.Sub(started)
	}
	return r
}

// checkServed decodes a served result and verifies it against the
// generated circuit the spec's netlist was written from, so a fault in
// the upload's parsing shows as well as one in the fold.
func checkServed(spec netlistSpec, body []byte, seed uint64) (*core.Result, error) {
	res, err := core.DecodeResult(body)
	if err != nil {
		return nil, err
	}
	if res.T != serveT {
		return nil, fmt.Errorf("served fold has T=%d, want %d", res.T, serveT)
	}
	if err := eqcheck.VerifyFoldWords(spec.G, res, serveVerifyRounds, int64(seed)); err != nil {
		return nil, err
	}
	return res, nil
}
