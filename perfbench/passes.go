package main

import (
	"fmt"
	"time"
)

// passResult is one pass over the evaluation stream.
type passResult struct {
	recs   []matchRec
	wallNS int64 // first offer to end's return
	stats  passStats
	heap   int64    // closed passes: resident heap, bytes
	rt     rtSample // closed passes: runtime counters over the pass
	late   []float64
	sched  schedule
	refNS  float64 // closed passes in the end-to-end run: median refWork time around the pass
	stolen float64 // closed passes in the end-to-end run: share of vCPU time stolen during the pass
}

// closedPass offers every event as fast as the path accepts it. The
// resident heap is the live heap at end of stream, with the pass's pipeline
// still reachable, minus the live heap before the pipeline was built.
func closedPass(t target, in *inputs, ref *reference) (passResult, error) {
	sk := newSink(len(ref.keys))
	h0 := liveHeapBytes()
	rt0 := readRuntime()
	if err := t.begin(sk, false); err != nil {
		return passResult{}, fmt.Errorf("starting the pass: %w", err)
	}
	evs := in.eval.Events
	sk.base = time.Now()
	for i := range evs {
		if err := t.offer(&evs[i]); err != nil {
			return passResult{}, fmt.Errorf("offering event %d: %w", evs[i].ID, err)
		}
	}
	st, err := t.end()
	wall := time.Since(sk.base)
	rt1 := readRuntime()
	if err != nil {
		return passResult{}, fmt.Errorf("ending the stream: %w", err)
	}
	h1 := liveHeapBytes()
	if err := t.release(); err != nil {
		return passResult{}, fmt.Errorf("releasing the pass: %w", err)
	}
	return passResult{
		recs: sk.recs, wallNS: int64(wall), stats: st, heap: int64(h1) - int64(h0),
		rt: rtSample{
			allocBytes: rt1.allocBytes - rt0.allocBytes,
			gcCycles:   rt1.gcCycles - rt0.gcCycles,
			gcPauseNS:  rt1.gcPauseNS - rt0.gcPauseNS,
		},
	}, nil
}

// openPass offers the events on a fixed schedule, rate events per second,
// whether or not the path keeps up, and records how late the generator ran.
func openPass(t target, in *inputs, ref *reference, rate float64) (passResult, error) {
	evs := in.eval.Events
	sk := newSink(len(ref.keys))
	late := make([]float64, len(evs))
	sched := newSchedule(rate)
	if err := t.begin(sk, true); err != nil {
		return passResult{}, fmt.Errorf("starting the pass: %w", err)
	}
	sk.base = time.Now().Add(time.Millisecond)
	for i := range evs {
		due := sched.due(evs[i].ID)
		late[i] = float64(waitUntil(sk.base, due)-due) / 1e6
		if err := t.offer(&evs[i]); err != nil {
			return passResult{}, fmt.Errorf("offering event %d: %w", evs[i].ID, err)
		}
	}
	st, err := t.end()
	wall := time.Since(sk.base)
	if err != nil {
		return passResult{}, fmt.Errorf("ending the stream: %w", err)
	}
	if err := t.release(); err != nil {
		return passResult{}, fmt.Errorf("releasing the pass: %w", err)
	}
	return passResult{recs: sk.recs, wallNS: int64(wall), stats: st, late: late, sched: sched}, nil
}

// waitUntil returns once the clock reaches due (ns after base), and the
// time it read then. It busy-waits. A sleep of a millisecond or less wakes
// about a millisecond late on common kernels, far more than the gap between
// events, and would measure the generator instead of the program. Yielding
// with runtime.Gosched is no better on the TCP path: the yielded pacer goes
// back on the global run queue, which the scheduler checks before it polls
// the network, so the server goroutine waiting on its socket stays parked
// until the runtime's monitor polls, up to 10 ms later.
func waitUntil(base time.Time, due int64) int64 {
	for {
		now := int64(time.Since(base))
		if now >= due {
			return now
		}
	}
}

// detectMS returns the pass's detection latencies in milliseconds.
func (p passResult) detectMS() []float64 {
	out := make([]float64, len(p.recs))
	for i, r := range p.recs {
		out[i] = float64(p.sched.detectNS(r)) / 1e6
	}
	return out
}

// checkPass applies the output checks to one pass and, when first is given,
// requires the pass to have emitted first's match set.
func checkPass(p passResult, ref *reference, first *passResult) error {
	if p.stats.relayed == 0 {
		return fmt.Errorf("the pass relayed no events")
	}
	if _, err := checkMatches(p.recs, ref); err != nil {
		return err
	}
	if first != nil && !sameMatches(p.recs, first.recs) {
		return fmt.Errorf("two passes over the same stream emitted different match sets")
	}
	return nil
}
