package main

import (
	"sync"
	"time"

	"dlacep/internal/core"
	"dlacep/internal/event"
	"dlacep/internal/nn"
)

// layerTrace owns every filter instance one traced pass creates: the
// pipeline's own filter, the shard clones, the server's per-connection
// filter. Spans are recorded from the benchmark's side of each call into a
// layer's public functions; nothing inside the program is instrumented.
type layerTrace struct {
	events int // stream length: sizes each instance's mark bitmap

	mu      sync.Mutex
	filters []*layerFilter
}

func newLayerTrace(events int) *layerTrace { return &layerTrace{events: events} }

// wrap returns a traced filter around inner and registers it.
func (t *layerTrace) wrap(inner core.EventFilter) *layerFilter {
	f := &layerFilter{inner: inner, trace: t, marked: make([]bool, t.events)}
	if net, ok := inner.(*core.EventNetwork); ok {
		f.net = net
		f.scratch = nn.NewScratch()
	}
	t.mu.Lock()
	t.filters = append(t.filters, f)
	t.mu.Unlock()
	return f
}

// filterSpans are the totals of one or more filter instances.
type filterSpans struct {
	embedNS, nnNS, crfNS int64 // time inside each layer's calls
	markNS               int64 // whole Mark/MarkBatch calls
	windows              int64 // windows marked
	rows                 int64 // event rows run through the network
	marks                int64 // non-blank events marked, repeats across windows included
}

func (s *filterSpans) add(o filterSpans) {
	s.embedNS += o.embedNS
	s.nnNS += o.nnNS
	s.crfNS += o.crfNS
	s.markNS += o.markNS
	s.windows += o.windows
	s.rows += o.rows
	s.marks += o.marks
}

// totals sums the spans of every registered instance and returns, by event
// ID, whether any instance marked the event (every marked event is relayed
// exactly once, so this is the relayed set).
func (t *layerTrace) totals() (filterSpans, []bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum filterSpans
	marked := make([]bool, t.events)
	for _, f := range t.filters {
		f.mu.Lock()
		sum.add(f.spans)
		for id, m := range f.marked {
			marked[id] = marked[id] || m
		}
		f.mu.Unlock()
	}
	return sum, marked
}

// layerFilter times the calls core.EventNetwork makes into the embed, nn and
// crf layers, by making them itself and applying the same threshold
// expression as EventNetwork.Mark, so its decisions are the network's. Any
// other filter is timed as a whole. It implements the three interfaces the
// serving paths probe for, so the Processor, the shard workers (MarkBatch,
// CloneFilter) and the server's filter factory all reach it.
type layerFilter struct {
	inner   core.EventFilter
	net     *core.EventNetwork // nil when inner is not an event network
	scratch *nn.Scratch        // this instance's inference arena
	batch   batchBufs
	trace   *layerTrace

	// mu guards spans and marked: the server's filter runs on its connection
	// goroutine and a shard clone on its worker, while the benchmark reads
	// the totals from its own goroutine.
	mu     sync.Mutex
	spans  filterSpans
	marked []bool
}

var (
	_ core.EventFilter     = (*layerFilter)(nil)
	_ core.BatchMarker     = (*layerFilter)(nil)
	_ core.CloneableFilter = (*layerFilter)(nil)
)

// batchBufs are MarkBatch's grow-only embedding and mark buffers.
type batchBufs struct {
	flat  []float64
	rows  [][]float64
	xs    [][][]float64
	mflat []bool
	marks [][]bool
}

// CloneFilter clones the inner filter and wraps the clone in a registered
// instance of its own; nil when the inner filter cannot be cloned.
func (f *layerFilter) CloneFilter() core.EventFilter {
	cf, ok := f.inner.(core.CloneableFilter)
	if !ok {
		return nil
	}
	inner := cf.CloneFilter()
	if inner == nil {
		return nil
	}
	return f.trace.wrap(inner)
}

// Mark marks one window, timing embed, nn and crf separately.
//
//dlacep:coldpath benchmark-side tracing wrapper: it runs only in traced passes, which report its allocations instead of gating them
func (f *layerFilter) Mark(window []event.Event) []bool {
	t0 := time.Now()
	if f.net == nil {
		marks := f.inner.Mark(window)
		markNS := int64(time.Since(t0))
		f.note(window, marks, filterSpans{markNS: markNS, windows: 1})
		return marks
	}
	x := f.net.Emb.EmbedWindow(window)
	t1 := time.Now()
	em := f.net.Net.Infer(x, f.scratch)
	t2 := time.Now()
	m := f.net.CRF.Marginals(em)
	t3 := time.Now()
	marks := make([]bool, len(window))
	for i := range m {
		marks[i] = m[i][1] >= f.net.Threshold && !window[i].IsBlank()
	}
	markNS := int64(time.Since(t0))
	f.note(window, marks, filterSpans{
		embedNS: int64(t1.Sub(t0)), nnNS: int64(t2.Sub(t1)), crfNS: int64(t3.Sub(t2)),
		markNS: markNS, windows: 1, rows: int64(len(window)),
	})
	return marks
}

// MarkBatch marks K windows the way EventNetwork.MarkBatch does: every
// window embedded into one flat block, one InferBatch call, then one CRF
// pass per window. The returned rows are valid until the next MarkBatch.
//
//dlacep:coldpath benchmark-side tracing wrapper: it runs only in traced passes, which report its allocations instead of gating them
func (f *layerFilter) MarkBatch(windows [][]event.Event) [][]bool {
	t0 := time.Now()
	if f.net == nil {
		out := make([][]bool, len(windows))
		for i, w := range windows {
			out[i] = f.inner.Mark(w)
		}
		d := int64(time.Since(t0))
		for i, w := range windows {
			f.note(w, out[i], filterSpans{})
		}
		f.note(nil, nil, filterSpans{markNS: d, windows: int64(len(windows))})
		return out
	}
	b := &f.batch
	total := 0
	for _, w := range windows {
		total += len(w)
	}
	dim := f.net.Emb.Dim()
	b.size(len(windows), total, dim)
	xs := b.xs[:len(windows)]
	off := 0
	for wi, w := range windows {
		rows := b.rows[off : off+len(w) : off+len(w)]
		for i := range w {
			row := b.flat[(off+i)*dim : (off+i+1)*dim : (off+i+1)*dim]
			f.net.Emb.EmbedInto(&w[i], row)
			rows[i] = row
		}
		xs[wi] = rows
		off += len(w)
	}
	t1 := time.Now()
	ems := f.net.Net.InferBatch(xs, f.scratch)
	t2 := time.Now()
	marks := b.marks[:len(windows)]
	off = 0
	for wi, w := range windows {
		if len(w) == 0 {
			marks[wi] = b.mflat[off:off:off]
			continue
		}
		m := f.net.CRF.Marginals(ems[wi])
		mw := b.mflat[off : off+len(w) : off+len(w)]
		for i := range m {
			mw[i] = m[i][1] >= f.net.Threshold && !w[i].IsBlank()
		}
		marks[wi] = mw
		off += len(w)
	}
	t3 := time.Now()
	for wi, w := range windows {
		f.note(w, marks[wi], filterSpans{})
	}
	f.note(nil, nil, filterSpans{
		embedNS: int64(t1.Sub(t0)), nnNS: int64(t2.Sub(t1)), crfNS: int64(t3.Sub(t2)),
		markNS: int64(t3.Sub(t0)), windows: int64(len(windows)), rows: int64(total),
	})
	return marks
}

func (b *batchBufs) size(nWindows, nEvents, dim int) {
	if need := nEvents * dim; cap(b.flat) < need {
		b.flat = make([]float64, need)
	}
	if cap(b.rows) < nEvents {
		b.rows = make([][]float64, nEvents)
	}
	if cap(b.mflat) < nEvents {
		b.mflat = make([]bool, nEvents)
	}
	if cap(b.xs) < nWindows {
		b.xs = make([][][]float64, nWindows)
	}
	if cap(b.marks) < nWindows {
		b.marks = make([][]bool, nWindows)
	}
}

// note adds one call's spans and records the window's marked events.
func (f *layerFilter) note(window []event.Event, marks []bool, sp filterSpans) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, m := range marks {
		if !m || i >= len(window) || window[i].IsBlank() {
			continue
		}
		sp.marks++
		if id := window[i].ID; id < uint64(len(f.marked)) {
			f.marked[id] = true
		}
	}
	f.spans.add(sp)
}
