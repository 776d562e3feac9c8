package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"dlacep/internal/shard"
)

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
}

// outcome is a checked run: its metrics and how many operations it offered.
type outcome struct {
	attempted int64
	metrics   []metric
}

func (o *outcome) add(name string, value float64, unit string) {
	o.metrics = append(o.metrics, metric{name, value, unit})
}

// setUp builds the workload's inputs and serving target setupRepeats times
// and returns the last, with the median set-up time in seconds, scaled to
// the fixed host of hostScale like the throughput. The exact reference is
// built afterwards and is not part of set-up.
func setUp(w workload, seed int64, repeats int) (*inputs, target, float64, error) {
	var (
		in        *inputs
		tgt       target
		raw, secs []float64
	)
	for i := 0; i < repeats; i++ {
		if tgt != nil {
			if err := tgt.close(); err != nil {
				return nil, nil, 0, err
			}
		}
		refs := refTimes(nil)
		s0 := stealSeconds()
		t0 := time.Now()
		var err error
		if in, err = buildInputs(w, seed); err != nil {
			return nil, nil, 0, err
		}
		if tgt, err = newTarget(w, in, nil); err != nil {
			return nil, nil, 0, err
		}
		d := time.Since(t0).Seconds()
		stolen := (stealSeconds() - s0) / (float64(runtime.NumCPU()) * d)
		raw = append(raw, d)
		secs = append(secs, d/hostScale(median(refTimes(refs)), stolen))
	}
	fmt.Printf("set-ups: seconds=%.3f scaled=%.3f\n", raw, secs)
	return in, tgt, median(secs), nil
}

// runEndToEnd is the untraced run: closed-loop passes for throughput and
// resident heap, interleaved with open-loop passes for detection latency,
// each pass checked against the exact reference. refWork is timed on both
// sides of every closed pass, and the vCPU time stolen during it is read,
// so that the pass's throughput can be scaled to a fixed host.
func runEndToEnd(w workload, seed int64, seconds int) (*outcome, error) {
	in, tgt, setupS, err := setUp(w, seed, setupRepeats)
	if err != nil {
		return nil, err
	}
	ref, err := cutEval(in, w.exact)
	if err != nil {
		return nil, err
	}
	budget := time.Duration(seconds) * time.Second
	closed, open, err := interleavePasses(budget, func() (passResult, error) {
		refs := refTimes(nil)
		s0 := stealSeconds()
		p, err := closedPass(tgt, in, ref)
		p.stolen = (stealSeconds() - s0) / (float64(runtime.NumCPU()) * float64(p.wallNS) / 1e9)
		p.refNS = median(refTimes(refs))
		return p, err
	}, func() (passResult, error) {
		return openPass(tgt, in, ref, w.rate)
	})
	if err != nil {
		return nil, err
	}
	if err := tgt.close(); err != nil {
		return nil, err
	}
	for _, passes := range [][]passResult{closed, open} {
		for _, p := range passes {
			if err := checkPass(p, ref, &closed[0]); err != nil {
				return nil, err
			}
		}
	}

	n := float64(in.eval.Len())
	var eps, norm, refMS, stolen, heap []float64
	for _, p := range closed {
		e := n / (float64(p.wallNS) / 1e9)
		eps = append(eps, e)
		norm = append(norm, e*hostScale(p.refNS, p.stolen))
		refMS = append(refMS, p.refNS/1e6)
		stolen = append(stolen, p.stolen)
		heap = append(heap, float64(p.heap)/1e6)
	}
	var groups [][]float64
	samples := 0
	for _, p := range open {
		groups = byInterval(groups, p.recs, p.sched)
		samples += len(p.recs)
	}
	p50, intervals := intervalPercentile(groups, 0.50)
	p90, _ := intervalPercentile(groups, 0.90)
	if intervals == 0 {
		return nil, fmt.Errorf("no open-loop interval holds %d matches", minPerInterval)
	}
	o := &outcome{attempted: int64(len(closed)+len(open)) * int64(n)}
	o.add("norm_events_per_s", median(norm), "events/s")
	o.add("detect_p50_ms", p50, "ms")
	o.add("recall", float64(len(closed[0].recs))/float64(len(ref.keys)), "ratio")
	o.add("resident_heap_mb", median(heap), "MB")
	o.add("setup_s", setupS, "s")
	// Every failed operation aborts the run, so a printed result has none.
	o.add("ok_frac", 1, "ratio")
	fmt.Printf("passes closed=%d open=%d events=%d exact_matches=%d detect_samples=%d detect_intervals=%d\n",
		len(closed), len(open), in.eval.Len(), len(ref.keys), samples, intervals)
	fmt.Printf("closed passes: events_per_s=%.0f ref_ms=%.3f stolen=%.3f\n", eps, refMS, stolen)
	// The unscaled throughput is printed but not in the result: the host's
	// speed drifts by more than its bound from run to run (see README.md).
	fmt.Printf("%-32s %16.6g %s (reported only)\n", "events_per_s", median(eps), "events/s")
	fmt.Printf("%-32s %16.6g %s (reported only)\n", "ref_ms", median(refMS), "ms")
	fmt.Printf("%-32s %16.6g %s (reported only)\n", "stolen_share", median(stolen), "ratio")
	// p90 is printed but not in the result: it does not repeat on a host
	// whose vCPUs stall for milliseconds at a time (see README.md).
	fmt.Printf("%-32s %16.6g %s (reported only)\n", "detect_p90_ms", p90, "ms")
	return o, nil
}

// The closed-loop passes' share of --seconds, in percent, and the fewest
// closed-loop passes whose median is reported.
const (
	closedShare     = 60
	minClosedPasses = 3
)

// interleavePasses runs closed-loop and open-loop passes in turn until
// budget is spent, at least minClosedPasses closed and one open. Whichever
// kind has had less than its share of the time so far (closedShare percent
// for closed passes) goes next, so both kinds sample the whole run and a
// slow spell of the host lands on both.
func interleavePasses(budget time.Duration, closedFn, openFn func() (passResult, error)) (closed, open []passResult, err error) {
	start := time.Now()
	var spent, last [2]time.Duration // [0] closed passes, [1] open passes
	for {
		k := 1
		if spent[0]*(100-closedShare) <= spent[1]*closedShare {
			k = 0
		}
		switch {
		case len(open) == 0 && len(closed) > 0:
			k = 1
		case len(closed) < minClosedPasses && len(open) > 0:
			k = 0
		case len(closed) >= minClosedPasses && len(open) > 0 && time.Since(start)+last[k] > budget:
			return closed, open, nil
		}
		t0 := time.Now()
		var p passResult
		if k == 0 {
			p, err = closedFn()
			closed = append(closed, p)
		} else {
			p, err = openFn()
			open = append(open, p)
		}
		if err != nil {
			return nil, nil, err
		}
		last[k] = time.Since(t0)
		spent[k] += last[k]
	}
}

// runTraced is the per-layer run: an untraced closed-loop pass, the same
// pass with every filter call timed from outside, an allocation count per
// filter layer, and an untraced open-loop pass for the generator's own
// figures.
func runTraced(w workload, seed int64) (*outcome, error) {
	in, plain, _, err := setUp(w, seed, 1)
	if err != nil {
		return nil, err
	}
	ref, err := cutEval(in, w.exact)
	if err != nil {
		return nil, err
	}
	base, err := closedPass(plain, in, ref)
	if err != nil {
		return nil, err
	}
	if err := checkPass(base, ref, nil); err != nil {
		return nil, err
	}
	var matchBytes int64
	if st, ok := plain.(*serverTarget); ok {
		matchBytes = st.replies.matchBytes
	}

	lt := newLayerTrace(in.eval.Len())
	traced, err := newTarget(w, in, lt)
	if err != nil {
		return nil, err
	}
	tp, err := closedPass(traced, in, ref)
	if err != nil {
		return nil, err
	}
	if err := traced.close(); err != nil {
		return nil, err
	}
	if err := checkPass(tp, ref, &base); err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	spans, marked := lt.totals()
	distinct, useful := 0, 0
	for id, m := range marked {
		if m {
			distinct++
			if ref.inMatch[id] {
				useful++
			}
		}
	}
	if distinct != tp.stats.relayed {
		return nil, fmt.Errorf("traced pass: the filter marked %d distinct events, the pipeline relayed %d", distinct, tp.stats.relayed)
	}

	op, err := openPass(plain, in, ref, w.rate)
	if err != nil {
		return nil, err
	}
	if err := plain.close(); err != nil {
		return nil, err
	}
	if err := checkPass(op, ref, &base); err != nil {
		return nil, err
	}

	n := float64(in.eval.Len())
	relayed := float64(tp.stats.relayed)
	matches := float64(len(base.recs))
	filterNS := float64(spans.embedNS + spans.nnNS + spans.crfNS)
	if in.net == nil {
		filterNS = float64(spans.markNS)
	}
	o := &outcome{attempted: 3 * int64(n)}

	var allocs allocCounts
	if in.net != nil {
		batch := 1
		if w.path == pathShard {
			batch = shardBatch
		}
		allocs = profileAllocs(in.net, in.eval.Events, batch)
	}
	o.add("embed.ns_per_event", float64(spans.embedNS)/n, "ns")
	o.add("embed.allocs_per_window", allocs.embedAllocs, "count")
	o.add("nn.ns_per_event", float64(spans.nnNS)/n, "ns")
	o.add("nn.allocs_per_window", allocs.nnAllocs, "count")
	o.add("nn.infers_per_event", float64(spans.rows)/n, "count")
	o.add("crf.ns_per_event", float64(spans.crfNS)/n, "ns")
	o.add("crf.allocs_per_window", allocs.crfAllocs, "count")
	o.add("crf.bytes_per_window", allocs.crfBytes, "B")

	// cep time and, on the server, instances come from the program's obs
	// registry where the path has no public seam: the shard merge stage and
	// the server's inner pipeline publish cep.pattern.0.* there.
	var cepNS, coreSelfNS, attributed, pushP99, busy, serverSelf float64
	instances := float64(base.stats.instances)
	switch t := traced.(type) {
	case *procTarget:
		cepNS = float64(t.cepNS)
		coreSelfNS = float64(t.pushNS) - filterNS - cepNS
		attributed = (filterNS + cepNS) / float64(t.pushNS)
	case *shardTarget:
		cepNS = float64(t.reg.Snapshot().DurationStats("cep.pattern.0.batch_ns").SumNS)
		pushP99 = summarize(t.pushes).p99
		busy = float64(spans.markNS) / (numShards * float64(tp.wallNS))
	case *serverTarget:
		cepNS = float64(t.reg.Snapshot().DurationStats("cep.pattern.0.batch_ns").SumNS)
		instances = float64(tp.stats.instances)
		span, intervals := t.tap.span()
		serverSelf = (float64(span) - float64(spans.markNS)) / float64(intervals)
		attributed = (float64(spans.markNS) + cepNS) / float64(span)
	}
	if w.path == pathProcessor && in.net != nil && attributed < minAttributed {
		return nil, fmt.Errorf("traced pass: measured spans cover %.3f of Push time, below %.2f", attributed, minAttributed)
	}
	o.add("core.self_ns_per_event", coreSelfNS/n, "ns")
	o.add("core.relay_ratio", relayed/n, "ratio")
	o.add("core.relay_precision", float64(useful)/float64(distinct), "ratio")
	o.add("core.dedup_ratio", float64(spans.marks-int64(distinct))/float64(spans.marks), "ratio")
	o.add("core.retained_bytes_per_match", float64(base.heap)/matches, "B")
	o.add("cep.ns_per_relayed_event", cepNS/relayed, "ns")
	o.add("cep.instances", instances, "count")
	o.add("cep.instances_per_match", instances/matches, "count")

	var skew, drainMS float64
	if w.path == pathShard {
		skew = partitionSkew(in)
		drainMS = float64(base.stats.endNS) / 1e6
	}
	o.add("shard.push_p99_ns", pushP99, "ns")
	o.add("shard.partition_skew", skew, "ratio")
	o.add("shard.filter_busy_share", busy, "ratio")
	o.add("shard.close_drain_ms", drainMS, "ms")

	var bytesPerMatch float64
	if w.path == pathServer {
		bytesPerMatch = float64(matchBytes) / matches
	}
	o.add("server.self_ns_per_event", serverSelf, "ns")
	o.add("server.bytes_per_match", bytesPerMatch, "B")

	o.add("runtime.alloc_bytes_per_event", float64(base.rt.allocBytes)/n, "B")
	o.add("runtime.gc_cycles", float64(base.rt.gcCycles), "count")
	o.add("runtime.gc_pause_ms", float64(base.rt.gcPauseNS)/1e6, "ms")

	late := summarize(op.late)
	detect := summarize(op.detectMS())
	o.add("dataset.late_p99_ms", late.p99, "ms")
	o.add("dataset.late_max_ms", late.max, "ms")
	o.add("dataset.detect_p90_ms", detect.p90, "ms")
	o.add("dataset.detect_p99_ms", detect.p99, "ms")
	o.add("dataset.detect_samples", float64(detect.n), "count")

	o.add("trace.overhead_ms", float64(tp.wallNS-base.wallNS)/1e6, "ms")
	o.add("trace.attributed_share", attributed, "ratio")
	for _, m := range o.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return nil, fmt.Errorf("metric %s is not a number", m.name)
		}
	}
	return o, nil
}

// minAttributed is the share of filtered_seq's Push wall time the measured
// spans (embed, nn, crf, cep) must cover for the trace to count.
const minAttributed = 0.90

// partitionSkew is the busiest shard's event count over the mean, with
// events routed by shard.Partition as the dispatcher routes them.
func partitionSkew(in *inputs) float64 {
	counts := make([]float64, numShards)
	for i := range in.eval.Events {
		counts[shard.Partition(in.eval.Events[i].Type, numShards)]++
	}
	mx := 0.0
	for _, c := range counts {
		mx = math.Max(mx, c)
	}
	return mx / (float64(in.eval.Len()) / numShards)
}
