package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// hostRecord describes the machine a run measured on. Throughput drifts
// with host state; the reference loop's rate, taken at the start of every
// run, lets a reader tell host drift from a regression. It is metadata, not
// a gated metric.
type hostRecord struct {
	NumCPU     int
	GOMAXPROCS int
	GoVersion  string
	RefOpsPerS float64
}

// refLoopOps is the reference loop's fixed length: an xorshift chain the
// compiler cannot fold, about 50 ms on a 2.7 GHz core.
const refLoopOps = 100_000_000

var refSink uint64

func referenceLoop() float64 {
	x := uint64(88172645463325252)
	t0 := time.Now()
	for i := 0; i < refLoopOps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	d := time.Since(t0)
	refSink = x
	return refLoopOps / d.Seconds()
}

func recordHost() hostRecord {
	return hostRecord{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		RefOpsPerS: referenceLoop(),
	}
}

func (h hostRecord) String() string {
	return fmt.Sprintf("host: nproc=%d gomaxprocs=%d go=%s ref_loop=%.4g ops/s",
		h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.RefOpsPerS)
}

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runtimeSample is the allocation and GC counters at one instant.
type runtimeSample struct {
	allocs, bytes   uint64
	gcCPU, totalCPU float64
}

// sampleRuntime reads the heap allocation totals and the runtime's CPU
// estimates. The GC CPU estimate updates at each collection, so a delta is
// only meaningful over a stretch with many of them.
func sampleRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{
		allocs:   ms.Mallocs,
		bytes:    ms.TotalAlloc,
		gcCPU:    s[0].Value.Float64(),
		totalCPU: s[1].Value.Float64(),
	}
}
