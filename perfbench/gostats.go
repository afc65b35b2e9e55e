package main

import (
	"fmt"
	"math"
	"runtime/metrics"
)

// goStats is a snapshot of the Go runtime's own counters.
type goStats struct {
	gcCycles   uint64
	allocBytes uint64
	pauseSec   float64
}

var goStatNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/sched/pauses/total/gc:seconds",
}

func readGoStats() goStats {
	samples := make([]metrics.Sample, len(goStatNames))
	for i, n := range goStatNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	var g goStats
	if samples[0].Value.Kind() == metrics.KindUint64 {
		g.gcCycles = samples[0].Value.Uint64()
	}
	if samples[1].Value.Kind() == metrics.KindUint64 {
		g.allocBytes = samples[1].Value.Uint64()
	}
	if samples[2].Value.Kind() == metrics.KindFloat64Histogram {
		g.pauseSec = histogramSum(samples[2].Value.Float64Histogram())
	}
	return g
}

// histogramSum estimates the total of a runtime histogram from bucket
// midpoints (an infinite edge falls back to the finite one).
func histogramSum(h *metrics.Float64Histogram) float64 {
	var sum float64
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		switch {
		case math.IsInf(lo, -1):
			lo = hi
		case math.IsInf(hi, 1):
			hi = lo
		}
		sum += float64(n) * (lo + hi) / 2
	}
	return sum
}

func (g goStats) since(before goStats) goStats {
	return goStats{
		gcCycles:   g.gcCycles - before.gcCycles,
		allocBytes: g.allocBytes - before.allocBytes,
		pauseSec:   g.pauseSec - before.pauseSec,
	}
}

func (g goStats) plus(o goStats) goStats {
	return goStats{
		gcCycles:   g.gcCycles + o.gcCycles,
		allocBytes: g.allocBytes + o.allocBytes,
		pauseSec:   g.pauseSec + o.pauseSec,
	}
}

// work is what a timed phase got done.
type work struct {
	ops int     // operations completed: evaluations or requests
	gc  goStats // the runtime's counters over the timed chunks only
}

// report adds the runtime's counters per 1000 operations, so that they
// describe the program's work and not how much of it one phase got done.
func (w work) report(r *report, op string) {
	g := w.gc
	if w.ops == 0 {
		r.fail("go.*: the untraced phase completed no %s", op)
		return
	}
	k := float64(w.ops) / 1000
	note := fmt.Sprintf("per 1000 %s over the untraced timed chunks", op)
	r.add("go.gc_cycles", float64(g.gcCycles)/k, "1/kop", note)
	r.add("go.gc_pause_ms", g.pauseSec*1000/k, "ms/kop", note+", from histogram midpoints")
	r.add("go.alloc_mb", float64(g.allocBytes)/(1<<20)/k, "MiB/kop", note)
}
