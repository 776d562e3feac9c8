package main

import (
	"fmt"
	"time"

	"dlacep/internal/cep"
	"dlacep/internal/core"
	"dlacep/internal/event"
	"dlacep/internal/obs"
	"dlacep/internal/pattern"
	"dlacep/internal/shard"
)

// sink receives a pass's matches as they reach the benchmark. It is written
// by one goroutine at a time (the pusher, the shard merge stage, or the
// server reply reader) and read only after that goroutine has been joined.
type sink struct {
	base time.Time // the pass's clock base
	recs []matchRec
}

// newSink preallocates room for every exact match, so recording allocates
// nothing that the resident-heap reading could mistake for pipeline state.
func newSink(exact int) *sink { return &sink{recs: make([]matchRec, 0, exact)} }

func (s *sink) add(ids []uint64, at time.Time) {
	s.recs = append(s.recs, matchRec{key: matchKey(ids), last: completing(ids), atNS: int64(at.Sub(s.base))})
}

func (s *sink) addAll(ms []*cep.Match, at time.Time) {
	for _, m := range ms {
		s.add(m.IDs(), at)
	}
}

// target is one serving path. A pass calls begin, offers every event of the
// stream in ID order, and calls end, which returns once every match has
// reached the sink. release then drops the pass's pipeline; close stops
// whatever set-up started.
type target interface {
	begin(sk *sink, open bool) error
	offer(ev *event.Event) error
	end() (passStats, error)
	release() error
	close() error
}

// passStats are the program's own end-of-pass counts.
type passStats struct {
	relayed   int   // events relayed to CEP
	instances int64 // cep instances created (C_ECEP); -1 where the path does not report it
	endNS     int64 // time spent in Flush / Close / the server's end-of-stream reply
}

func newTarget(w workload, in *inputs, lt *layerTrace) (target, error) {
	switch w.path {
	case pathProcessor:
		return newProcTarget(in, lt)
	case pathShard:
		return newShardTarget(in, lt)
	case pathServer:
		return newServerTarget(in, lt)
	}
	return nil, fmt.Errorf("workload %s: unknown path", w.name)
}

// pipelineFor builds the core pipeline a pass runs, with the filter wrapped
// for tracing when lt is set.
func pipelineFor(in *inputs, lt *layerTrace) (*core.Pipeline, error) {
	f := in.filter()
	if lt != nil {
		f = lt.wrap(f)
	}
	return core.NewPipeline(in.schema, []*pattern.Pattern{in.pat}, in.cfg, f)
}

// procTarget pushes events through core.Processor on the benchmark's own
// goroutine; matches reach the benchmark when Push or Flush returns them.
type procTarget struct {
	pl *core.Pipeline
	p  *core.Processor
	sk *sink

	// Traced passes only. relayAt is set by Pipeline.OnRelay inside Push;
	// the cep span runs from there to Push's return.
	traced  bool
	relayAt time.Time
	pushNS  int64 // Push and Flush wall time
	cepNS   int64
}

func newProcTarget(in *inputs, lt *layerTrace) (*procTarget, error) {
	pl, err := pipelineFor(in, lt)
	if err != nil {
		return nil, err
	}
	t := &procTarget{pl: pl, traced: lt != nil}
	if t.traced {
		pl.OnRelay = func([]event.Event) { t.relayAt = time.Now() }
	}
	return t, nil
}

func (t *procTarget) begin(sk *sink, _ bool) error {
	p, err := t.pl.NewProcessor()
	t.p, t.sk = p, sk
	return err
}

func (t *procTarget) offer(ev *event.Event) error {
	if !t.traced {
		ms, err := t.p.Push(*ev)
		t.sk.addAll(ms, time.Now())
		return err
	}
	t0 := time.Now()
	ms, err := t.p.Push(*ev)
	t.stop(t0, ms)
	return err
}

// stop closes the spans of one traced Push or Flush that started at t0.
func (t *procTarget) stop(t0 time.Time, ms []*cep.Match) {
	t1 := time.Now()
	t.pushNS += int64(t1.Sub(t0))
	if !t.relayAt.IsZero() {
		t.cepNS += int64(t1.Sub(t.relayAt))
		t.relayAt = time.Time{}
	}
	t.sk.addAll(ms, t1)
}

func (t *procTarget) end() (passStats, error) {
	t0 := time.Now()
	ms, err := t.p.Flush()
	if t.traced {
		t.stop(t0, ms)
	} else {
		t.sk.addAll(ms, time.Now())
	}
	endNS := int64(time.Since(t0))
	if err != nil {
		return passStats{}, err
	}
	res := t.p.Result()
	return passStats{relayed: res.EventsRelayed, instances: res.CEPStats[0].Instances, endNS: endNS}, nil
}

func (t *procTarget) release() error { t.p = nil; return nil }
func (t *procTarget) close() error   { return nil }

// shardTarget dispatches events into shard.Pipeline; matches reach the
// benchmark on the merge goroutine through Options.OnMatch.
type shardTarget struct {
	pl *core.Pipeline
	sp *shard.Pipeline

	// Traced passes only: per-Push dispatcher time, and the program's obs
	// registry, which is where the merge stage's cep time is read from.
	traced bool
	reg    *obs.Registry
	pushes []float64
}

func newShardTarget(in *inputs, lt *layerTrace) (*shardTarget, error) {
	pl, err := pipelineFor(in, lt)
	if err != nil {
		return nil, err
	}
	t := &shardTarget{pl: pl, traced: lt != nil}
	if t.traced {
		t.reg = obs.NewRegistry()
		pl.Obs = t.reg
		t.pushes = make([]float64, 0, in.eval.Len())
	}
	return t, nil
}

func (t *shardTarget) begin(sk *sink, _ bool) error {
	sp, err := shard.New(t.pl, shard.Options{Shards: numShards, Batch: shardBatch,
		OnMatch: func(m *cep.Match) { sk.add(m.IDs(), time.Now()) }})
	t.sp = sp
	return err
}

func (t *shardTarget) offer(ev *event.Event) error {
	if !t.traced {
		return t.sp.Push(*ev)
	}
	t0 := time.Now()
	err := t.sp.Push(*ev)
	t.pushes = append(t.pushes, float64(time.Since(t0)))
	return err
}

func (t *shardTarget) end() (passStats, error) {
	t0 := time.Now()
	res, err := t.sp.Close()
	endNS := int64(time.Since(t0))
	if err != nil {
		return passStats{}, err
	}
	return passStats{relayed: res.EventsRelayed, instances: res.CEPStats[0].Instances, endNS: endNS}, nil
}

func (t *shardTarget) release() error { t.sp = nil; return nil }
func (t *shardTarget) close() error   { return nil }
