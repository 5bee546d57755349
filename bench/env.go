package main

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// benchProcs is the GOMAXPROCS every run uses, so results from hosts with
// more cores stay comparable with the 2-core reference.
const benchProcs = 2

// environment is recorded in every result so a reader can tell what host
// and settings produced it.
type environment struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Scale      float64 `json:"scale"`
	Seconds    float64 `json:"seconds"`
}

// setupEnvironment pins GOMAXPROCS and records the host. It refuses hosts
// with fewer than benchProcs cores: sharded execution and parallel admission
// would time-slice one core and the soak numbers would mean something else.
func setupEnvironment(cfg config) (environment, error) {
	if runtime.NumCPU() < benchProcs {
		return environment{}, fmt.Errorf("bench: needs at least %d CPUs, host has %d", benchProcs, runtime.NumCPU())
	}
	runtime.GOMAXPROCS(benchProcs)
	return environment{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: benchProcs,
		NumCPU:     runtime.NumCPU(),
		Commit:     commitID(),
		Seed:       cfg.seed,
		Scale:      cfg.scale,
		Seconds:    cfg.seconds,
	}, nil
}

// commitID asks git for HEAD; the driver's checkout is not a repository, so
// failure is expected there and recorded as "unknown".
func commitID() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// tempDirs hands out state directories under the benchmark's own output
// directory (never the system temp dir: a run writes only inside its
// checkout) and removes them all on cleanup.
type tempDirs struct {
	root string
	dirs []string
}

func (t *tempDirs) make(pattern string) (string, error) {
	if err := os.MkdirAll(t.root, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(t.root, pattern)
	if err != nil {
		return "", err
	}
	t.dirs = append(t.dirs, dir)
	return dir, nil
}

func (t *tempDirs) cleanup() {
	for _, d := range t.dirs {
		os.RemoveAll(d)
	}
	t.dirs = nil
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's high-water resident set (Linux reports KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// stopwatch accumulates the timed sections of one measured window: wall,
// CPU, allocation and GC deltas. Memory statistics and the host probe are
// read outside the timed interval so reading them costs the window nothing.
type stopwatch struct {
	wall, cpu time.Duration
	// refWall and refCPU are the same sums with every section divided by the
	// host slowdown probed around it: reference-host time (see calib.go).
	refWall, refCPU time.Duration
	allocBytes      uint64
	allocs          uint64
	gcCycles        uint32
	gcPause         time.Duration

	// threads is how many cores the timed work keeps busy, and so how many
	// concurrent passes a host probe makes.
	threads int
	// slow is the latest probe reading and probed when it was taken.
	slow   float64
	probed time.Time

	t0 time.Time
	c0 time.Duration
	s0 float64
	m0 runtime.MemStats
}

// hostSlowdown probes the host, or returns the reading just taken when the
// previous section ended a moment ago.
func (s *stopwatch) hostSlowdown() float64 {
	if s.probed.IsZero() || time.Since(s.probed) > probeFresh {
		s.slow = probe.slowdown(s.threads)
		s.probed = time.Now()
	}
	return s.slow
}

func (s *stopwatch) start() {
	s.s0 = s.hostSlowdown()
	runtime.ReadMemStats(&s.m0)
	s.c0 = cpuTime()
	s.t0 = time.Now()
}

// stop ends the current section. It returns the section's wall time and the
// host slowdown over it, the mean of the probes before and after.
func (s *stopwatch) stop() (time.Duration, float64) {
	d := time.Since(s.t0)
	cpu := cpuTime() - s.c0
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s.probed = time.Time{}
	slow := (s.s0 + s.hostSlowdown()) / 2
	s.wall += d
	s.cpu += cpu
	s.refWall += time.Duration(float64(d) / slow)
	s.refCPU += time.Duration(float64(cpu) / slow)
	s.allocBytes += m.TotalAlloc - s.m0.TotalAlloc
	s.allocs += m.Mallocs - s.m0.Mallocs
	s.gcCycles += m.NumGC - s.m0.NumGC
	s.gcPause += time.Duration(m.PauseTotalNs - s.m0.PauseTotalNs)
	return d, slow
}

// lap ends the current section and starts the next, so a long stretch is
// divided by the host slowdown piece by piece.
func (s *stopwatch) lap() {
	s.stop()
	s.start()
}

// liveHeap forces a collection and returns the bytes still reachable. The
// caller keeps its world alive past the call (runtime.KeepAlive), or the
// number measures an empty process.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// percentile is the nearest-rank percentile of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is num/den, 0 when den is 0 (a layer that did not run).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
