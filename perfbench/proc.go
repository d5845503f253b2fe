package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"
)

// procSnap is a whole-process resource reading: CPU time and context
// switches from getrusage, allocation and GC CPU from runtime/metrics.
type procSnap struct {
	cpu        time.Duration
	ctxSwitch  int64
	allocBytes uint64
	gcCPU      float64 // seconds
	totalCPU   float64 // seconds, as the Go runtime accounts it
}

var procSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readProc() procSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := make([]metrics.Sample, len(procSamples))
	copy(s, procSamples)
	metrics.Read(s)
	return procSnap{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		ctxSwitch:  ru.Nvcsw + ru.Nivcsw,
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
	}
}

// procMetrics turns two readings around ops operations into the proc.*
// per-layer metrics.
func procMetrics(a, b procSnap, ops uint64, m metricSet) {
	n := float64(ops)
	m.set("proc.cpu_us_per_op", ratio(float64((b.cpu-a.cpu).Microseconds()), n))
	m.set("proc.alloc_bytes_per_op", ratio(float64(b.allocBytes-a.allocBytes), n))
	m.set("proc.gc_cpu_share", ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU))
	m.set("proc.ctx_switches_per_op", ratio(float64(b.ctxSwitch-a.ctxSwitch), n))
}

// liveHeap collects garbage and returns the live Go heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// host is the fingerprint recorded with every result, so a number from
// one machine is not compared with one from another.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOAMD64    string `json:"goamd64"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func fingerprint() host {
	h := host{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GOAMD64: "n/a", CPUModel: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				h.GOAMD64 = s.Value
			}
		}
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}
