package main

import (
	"bufio"
	"crypto/sha256"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// host is the run's fingerprint, printed before the result so figures
// from different machines or sources are never compared unknowingly.
type host struct {
	CPU        string  `json:"cpu"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	OS         string  `json:"os"`
	Commit     string  `json:"commit"`
	ProbeMS    float64 `json:"cpu_probe_ms"`
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    int     `json:"seconds"`
	Trace      bool    `json:"trace"`
}

func fingerprint(cfg config) host {
	return host{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
		Commit:     cfg.commit,
		ProbeMS:    cpuProbeMS(),
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    int(cfg.seconds.Seconds()),
		Trace:      cfg.trace,
	}
}

// cpuProbeMS times a fixed single-threaded hashing loop, best of three:
// a host that runs it slower than usual is slowed by its neighbours, and
// every figure of the run is suspect.
func cpuProbeMS() float64 {
	best := time.Duration(math.MaxInt64)
	buf := make([]byte, 4096)
	for r := 0; r < 3; r++ {
		t0 := time.Now()
		for i := 0; i < 10000; i++ {
			sum := sha256.Sum256(buf)
			buf[0] = sum[0]
		}
		best = min(best, time.Since(t0))
	}
	return ms(best)
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// maxRSSMB converts getrusage's ru_maxrss, in KiB on Linux, to MiB.
func maxRSSMB(kib int64) float64 { return float64(kib) / 1024 }
