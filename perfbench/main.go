// Command perfbench is the repository's end-to-end benchmark. It generates a
// seeded stock stream, builds one workload's pipeline, checks every pass's
// matches against the exact match set from cep.Run, and prints each metric
// by name and unit, then one JSON line with the result.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload filtered_seq --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 makes a separate
// traced run and reports the per-layer metrics. README.md describes the
// workloads and metrics. Any failed check ends the run with exit status 1
// and no result line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name: filtered_seq, filtered_shard2 or exact_kleene_tcp")
	seed := fs.Int64("seed", 1, "seed of the generated stream")
	seconds := fs.Int("seconds", 30, "measuring time of the end-to-end run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	fmt.Printf("host nproc=%d gomaxprocs=%d go=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Printf("workload %s seed=%d exact_matches=%d offered_rate=%.0f/s trace=%d\n", w.name, *seed, w.exact, w.rate, *trace)
	var o *outcome
	switch *trace {
	case 0:
		o, err = runEndToEnd(w, *seed, *seconds)
	case 1:
		o, err = runTraced(w, *seed)
	default:
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if err != nil {
		return fmt.Errorf("workload %s: %w", w.name, err)
	}
	res := result{Correct: true, Attempted: o.attempted, Metrics: map[string]metricValue{}}
	for _, m := range o.metrics {
		fmt.Printf("%-32s %16.6g %s\n", m.name, m.value, m.unit)
		res.Metrics[m.name] = metricValue{m.value, m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
