package main

import "fmt"

// path is the serving path a workload drives.
type path int

const (
	pathProcessor path = iota // core.Processor, events pushed in process
	pathShard                 // shard.Pipeline, dispatcher + marking shards + merge
	pathServer                // server.Server over one loopback TCP connection
)

// workload is one named input set. All three replay the same seeded stock
// stream; they differ in pattern, filter and serving path, and so in which
// layers carry the load. README.md lists, per workload, the layers each
// per-layer metric should move.
type workload struct {
	name    string
	pattern string
	// trained selects the filter: an EventNetwork trained and calibrated in
	// set-up, or core.KeepAllFilter (the exact ECEP baseline).
	trained bool
	path    path
	// exact is the number of exact matches in the evaluation stream (see
	// cutEval): about 75k events of the SEQ pattern and 150k of the Kleene
	// one. The Kleene path's cost is mostly per match, and its matches per
	// event ranged from 0.31 to 0.51 across seeds over 75k events, so its
	// stream is longer.
	exact int
	// rate is the open-loop pass's offered load, in events per second.
	rate float64
}

// The pattern texts. Both name only tickers the generator emits (S1 is the
// most prevalent of S1..S32); the type guard rejects any that do not.
const (
	seqPattern    = "PATTERN SEQ(S1 a, S2 b, S3 c) WHERE 0.8 * a.vol < c.vol AND c.vol < 1.25 * a.vol WITHIN 16"
	kleenePattern = "PATTERN SEQ(S1 a, KC(S2 b), S3 c) WHERE a.vol < c.vol WITHIN 16"
)

var workloads = []workload{
	// The paper's path: the deep filter dominates it.
	{name: "filtered_seq", pattern: seqPattern, trained: true, path: pathProcessor, exact: 1500, rate: 20000},
	// The only workload through rings, merge and InferBatch.
	{name: "filtered_shard2", pattern: seqPattern, trained: true, path: pathShard, exact: 1500, rate: 20000},
	// ECEP baseline served over TCP: cep Kleene branching, dedup, match
	// retention and per-match JSON carry the load; the filter does nothing.
	{name: "exact_kleene_tcp", pattern: kleenePattern, trained: false, path: pathServer, exact: 60000, rate: 15000},
}

// Fixed shape of every workload's inputs and pipeline.
const (
	tickers      = 32
	zipfS        = 1.2
	volSigma     = 0.25
	trainPool    = 150000 // generated events the training windows are drawn from
	trainWindows = 625    // 20k events of training windows
	evalPool     = 300000 // generated events the evaluation stream is cut from
	markSize     = 32
	stepSize     = 16
	hiddenSize   = 16
	netLayers    = 1
	trainEpochs  = 5
	modelSeed    = 1 // weights and shuffling; the stream comes from --seed
	targetRecall = 0.99
	numShards    = 2
	shardBatch   = 4
	setupRepeats = 3 // set-ups per run; setup_s is their median
)

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}
