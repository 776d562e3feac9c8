package main

import (
	"runtime"
	"runtime/metrics"

	"dlacep/internal/core"
	"dlacep/internal/event"
	"dlacep/internal/nn"
)

// rtSample is a reading of the Go runtime's cumulative counters.
type rtSample struct {
	allocBytes uint64 // bytes allocated on the heap
	gcCycles   uint64 // completed GC cycles
	gcPauseNS  uint64 // stop-the-world GC pause time
}

// readRuntime reads the allocation and cycle counters from runtime/metrics
// and the pause total from runtime.MemStats: runtime/metrics gives pauses
// only as a histogram, whose bucket bounds would round the total.
func readRuntime() rtSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return rtSample{allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64(), gcPauseNS: ms.PauseTotalNs}
}

// liveHeapBytes collects garbage and returns the heap still reachable.
func liveHeapBytes() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// allocCounts are allocations per marking window in each filter layer.
type allocCounts struct {
	embedAllocs, nnAllocs, crfAllocs, crfBytes float64
}

// profileAllocs counts the allocations each filter layer makes per window,
// over the first windows of the stream cut as the serving path cuts them,
// calling each layer the way that path does: EmbedWindow, Infer and
// Marginals per window (batch 1), or EmbedInto, InferBatch over groups of
// batch windows and Marginals (the shard path). The counts are exact and
// repeat from run to run; time is measured elsewhere.
func profileAllocs(proto *core.EventNetwork, evs []event.Event, batch int) allocCounts {
	net := proto.CloneFilter().(*core.EventNetwork)
	var windows [][]event.Event
	for lo := 0; lo+markSize <= len(evs) && len(windows) < 256; lo += stepSize {
		windows = append(windows, evs[lo:lo+markSize])
	}
	nw := float64(len(windows))
	var out allocCounts

	xs := make([][][]float64, len(windows))
	if batch <= 1 {
		a, _ := countAllocs(func() {
			for i, w := range windows {
				xs[i] = net.Emb.EmbedWindow(w)
			}
		})
		out.embedAllocs = a / nw
	} else {
		dim := net.Emb.Dim()
		flat := make([]float64, len(windows)*markSize*dim)
		for i := range xs {
			xs[i] = make([][]float64, markSize)
			for j := range xs[i] {
				off := (i*markSize + j) * dim
				xs[i][j] = flat[off : off+dim : off+dim]
			}
		}
		a, _ := countAllocs(func() {
			for i, w := range windows {
				for j := range w {
					net.Emb.EmbedInto(&w[j], xs[i][j])
				}
			}
		})
		out.embedAllocs = a / nw
	}

	var groups [][][][]float64
	for lo := 0; lo < len(xs); lo += batch {
		groups = append(groups, xs[lo:min(lo+batch, len(xs))])
	}
	s := nn.NewScratch()
	// The first round warms the arena to its high-water mark and keeps each
	// window's emissions for the crf count.
	ems := make([][][]float64, 0, len(windows))
	for _, g := range groups {
		if batch <= 1 {
			ems = append(ems, copyRows(net.Net.Infer(g[0], s)))
			continue
		}
		for _, em := range net.Net.InferBatch(g, s) {
			ems = append(ems, copyRows(em))
		}
	}
	a, _ := countAllocs(func() {
		for _, g := range groups {
			if batch <= 1 {
				net.Net.Infer(g[0], s)
			} else {
				net.Net.InferBatch(g, s)
			}
		}
	})
	out.nnAllocs = a / nw

	a, b := countAllocs(func() {
		for _, em := range ems {
			net.CRF.Marginals(em)
		}
	})
	out.crfAllocs, out.crfBytes = a/nw, b/nw
	return out
}

func copyRows(rows [][]float64) [][]float64 {
	out := make([][]float64, len(rows))
	for i, r := range rows {
		out[i] = append([]float64(nil), r...)
	}
	return out
}

// countAllocs returns the heap allocations and bytes fn makes.
func countAllocs(fn func()) (allocs, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc)
}
