package main

import (
	"fmt"

	"dlacep/internal/cep"
	"dlacep/internal/core"
	"dlacep/internal/dataset"
	"dlacep/internal/event"
	"dlacep/internal/label"
	"dlacep/internal/pattern"
)

// inputs is what every pass of a run shares: the evaluation stream, the
// pattern, the pipeline configuration and the filter prototype.
type inputs struct {
	schema *event.Schema
	pat    *pattern.Pattern
	cfg    core.Config
	pool   *event.Stream      // the generated events after the training pool, IDs from 0
	eval   *event.Stream      // the prefix of pool every pass replays; set by cutEval
	net    *core.EventNetwork // nil for untrained workloads
}

// filter returns a fresh filter instance: a clone of the trained network
// (own BiLSTM state and inference arena) or the stateless KeepAllFilter.
func (in *inputs) filter() core.EventFilter {
	if in.net == nil {
		return core.KeepAllFilter{}
	}
	return in.net.CloneFilter()
}

// buildInputs generates the seeded stock stream and, for trained workloads,
// fits and calibrates the event network on windows drawn from the stream's
// first trainPool events, which the evaluation stream never reaches.
//
// The training windows are spread evenly over the whole training pool
// rather than taken as one contiguous prefix: per-ticker volumes follow a
// slowly reverting random walk, and a network fitted to one short stretch of
// it met volume ranges in the evaluation stream it had never seen, so its
// recall swung between 0.1 and 0.7 from seed to seed.
func buildInputs(w workload, seed int64) (*inputs, error) {
	full := dataset.Stock(dataset.StockConfig{
		Events: trainPool + evalPool, Tickers: tickers, ZipfS: zipfS, Sigma: volSigma, Seed: seed,
	})
	pat, err := pattern.ParseWithSchema(w.pattern, full.Schema)
	if err != nil {
		return nil, err
	}
	pool := event.NewStream(full.Schema, full.Events[trainPool:]) // renumbers from 0
	if err := checkTypes(pat, pool); err != nil {
		return nil, err
	}
	in := &inputs{
		schema: full.Schema,
		pat:    pat,
		cfg:    core.Config{MarkSize: markSize, StepSize: stepSize, Hidden: hiddenSize, Layers: netLayers, Seed: modelSeed},
		pool:   pool,
	}
	if !w.trained {
		return in, nil
	}
	pats := []*pattern.Pattern{pat}
	var windows [][]event.Event
	for lo := 0; lo+markSize <= trainPool; lo += trainPool / trainWindows {
		windows = append(windows, full.Events[lo:lo+markSize])
	}
	lab, err := label.New(full.Schema, pats...)
	if err != nil {
		return nil, err
	}
	net, err := core.NewEventNetwork(full.Schema, pats, in.cfg)
	if err != nil {
		return nil, err
	}
	opt := core.DefaultTrainOptions()
	opt.MaxEpochs = trainEpochs
	opt.NoConvergence = true
	opt.Seed = modelSeed
	if _, err := net.Fit(windows, lab, opt); err != nil {
		return nil, fmt.Errorf("training the filter: %w", err)
	}
	if _, err := net.Calibrate(windows, lab, targetRecall); err != nil {
		return nil, fmt.Errorf("calibrating the filter: %w", err)
	}
	in.net = net
	return in, nil
}

// reference is the exact match set of the evaluation stream.
type reference struct {
	keys    map[uint64]bool
	inMatch []bool // by event ID: the event belongs to at least one exact match
}

// cutEval sets the evaluation stream to the shortest prefix of the pool that
// holds exact matches of the pattern, and returns that stream's exact match
// set, as cep.Run computes it. Cutting at a fixed match count rather than a
// fixed event count keeps the CEP work and the matches a pass retains the
// same from seed to seed: over a fixed 150k events the exact match count
// varies by ±20% with the seed.
func cutEval(in *inputs, exact int) (*reference, error) {
	en, err := cep.New(in.pat, in.schema)
	if err != nil {
		return nil, err
	}
	ref := &reference{keys: map[uint64]bool{}}
	var matched [][]uint64
	add := func(ms []*cep.Match) {
		for _, m := range ms {
			ids := m.IDs()
			if k := matchKey(ids); !ref.keys[k] {
				ref.keys[k] = true
				matched = append(matched, ids)
			}
		}
	}
	evs := in.pool.Events
	n := 0
	for n < len(evs) && len(ref.keys) < exact {
		add(en.Process(evs[n]))
		n++
	}
	if len(ref.keys) < exact {
		return nil, fmt.Errorf("the %d generated events hold only %d of the %d exact matches a pass needs", len(evs), len(ref.keys), exact)
	}
	add(en.Flush())
	in.eval = &event.Stream{Schema: in.schema, Events: evs[:n]}
	ref.inMatch = make([]bool, n)
	for _, ids := range matched {
		for _, id := range ids {
			ref.inMatch[id] = true
		}
	}
	return ref, nil
}
