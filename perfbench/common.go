package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"distwindow"
	"distwindow/internal/stream"
)

// env carries one run's settings.
type env struct {
	seed    int64
	seconds float64
	trace   bool
	sketchd string // path of the built sketchd binary
	out     string // directory for run records and span dumps
}

// dur is the measured duration of one run.
func (e env) dur() time.Duration { return time.Duration(e.seconds * float64(time.Second)) }

// params fixes a workload's tracker configuration.
type params struct {
	proto distwindow.Protocol
	d     int
	sites int
	eps   float64
	rpw   int // rows per window
}

func (p params) W() int64 { return int64(p.rpw) * ticksPerRow }

// ell is the FD buffer size the DA2 family uses at ε: ⌈1/ε⌉.
func (p params) ell() int { return int(math.Ceil(1 / p.eps)) }

func (p params) config() distwindow.Config {
	return distwindow.Config{Protocol: p.proto, D: p.d, W: p.W(), Eps: p.eps, Sites: p.sites, Seed: 1}
}

// covSlack is the covariance-error check's allowance over ε. The
// protocols guarantee O(ε): DA1's amortized trigger and DA2's IWMT prefix
// property (3θ/2 plus FD drift per site, THEORY.md) both add constants,
// and on SYNTHETIC DA2 does exceed ε at some query points. The check fails
// a run above 2ε; the notes count the points above ε itself.
const covSlack = 2

// covLimit is the largest covariance error a run accepts at ε.
func (p params) covLimit() float64 { return covSlack * p.eps }

// setupRepeats is how many times a run performs its set-up; setup_s is
// the median, so one slow start does not decide the figure.
const setupRepeats = 3

// row converts a generated event to the facade's row type.
func row(ev stream.Event) distwindow.Row { return distwindow.Row{T: ev.Row.T, V: ev.Row.V} }

// procHWM returns the peak resident set (VmHWM) of a process in MB; pid 0
// means this process.
func procHWM(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// procCPU returns the CPU time (user plus system) a process has used, in
// seconds, from /proc/<pid>/stat, whose clock ticks are 1/100 s on Linux.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3 (state);
	// utime and stime are fields 14 and 15.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	fields := strings.Fields(s[i+1:])
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var ticks float64
	for _, f := range fields[11:13] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, fmt.Errorf("parse /proc/%d/stat: %w", pid, err)
		}
		ticks += v
	}
	return ticks / 100, nil
}

// runtimeMark is a point-in-time read of the Go runtime's allocation and
// CPU counters, for per-row allocation and GC-share figures.
type runtimeMark struct {
	mallocs       uint64
	gcCPU, allCPU float64
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func markRuntime() runtimeMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := append([]metrics.Sample(nil), cpuSamples...)
	metrics.Read(s)
	m := runtimeMark{mallocs: ms.Mallocs}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		m.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		m.allCPU = s[1].Value.Float64()
	}
	return m
}

// allocsSince is mallocs since the mark.
func (m runtimeMark) allocsSince() float64 { return float64(markRuntime().mallocs - m.mallocs) }

// gcShareSince is the GC's share of CPU time since the mark. The runtime
// refreshes its CPU classes only when a GC cycle ends, so one is forced
// first; its cost is included, a bias of about a millisecond per call.
func (m runtimeMark) gcShareSince() float64 {
	runtime.GC()
	n := markRuntime()
	all := n.allCPU - m.allCPU
	if all <= 0 {
		return 0
	}
	return (n.gcCPU - m.gcCPU) / all
}

// every is the period of a fixed rate per second.
func every(rate float64) time.Duration { return time.Duration(float64(time.Second) / rate) }

// sleepUntil blocks until t (no-op if t has passed).
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}
