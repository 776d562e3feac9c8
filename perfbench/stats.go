package main

import (
	"math"
	"sort"
)

// matchRec is what the benchmark keeps of one emitted match: enough to check
// it against the exact set and to time it, and nothing that would keep the
// pipeline's own match objects reachable.
type matchRec struct {
	key  uint64 // matchKey of the sorted event IDs
	last uint64 // the completing event: the highest ID in the match
	atNS int64  // arrival at the benchmark, ns since the pass's clock base
}

// matchKey hashes a match's ascending event IDs (FNV-1a over the 8 bytes of
// each ID). Two matches over the same event set get the same key, which is
// the identity the pipeline's own dedup and cep.Run use.
func matchKey(ids []uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, id := range ids {
		for s := 0; s < 64; s += 8 {
			h ^= (id >> s) & 0xff
			h *= 1099511628211
		}
	}
	return h
}

// completing returns a match's completing event: the one with the highest
// ID, which is the point at which the match can first be output.
func completing(ids []uint64) uint64 {
	var m uint64
	for _, id := range ids {
		if id > m {
			m = id
		}
	}
	return m
}

// schedule is the open-loop pass's timetable: event i of the pass is due
// i/rate seconds after the clock base.
type schedule struct {
	periodNS float64
}

func newSchedule(rate float64) schedule { return schedule{periodNS: 1e9 / rate} }

// due returns when the event with the given pass-relative ID was due, in ns
// since the clock base.
func (s schedule) due(id uint64) int64 { return int64(math.Round(float64(id) * s.periodNS)) }

// detectNS is the detection latency of a match that reached the benchmark at
// atNS: the time since its completing event was due. A generator that ran
// late delays the event it sends and every match it completes; timing from
// the due time, not the send time, keeps that wait in the figure.
func (s schedule) detectNS(r matchRec) int64 { return r.atNS - s.due(r.last) }

// latencyInterval is the span of pass time over which detect_p50_ms and
// detect_p90_ms take their percentiles before the median over intervals is
// reported, and minPerInterval the fewest matches an interval needs to count.
const (
	latencyInterval = 500_000_000 // ns
	minPerInterval  = 50
)

// byInterval groups detection latencies (ms) by the interval of the pass
// clock in which each match's completing event was due, appending the
// groups of one pass to groups.
func byInterval(groups [][]float64, recs []matchRec, s schedule) [][]float64 {
	first := len(groups)
	for _, r := range recs {
		i := first + int(s.due(r.last)/latencyInterval)
		for len(groups) <= i {
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], float64(s.detectNS(r))/1e6)
	}
	return groups
}

// intervalPercentile takes the q-percentile within every group holding at
// least minPerInterval samples and returns the median of those percentiles
// and the number of groups used. A host stall of tens of milliseconds delays
// every match due around it: pooled over a run, two or three such stalls
// decide the p90, while the median over intervals reports the typical
// interval and leaves the stalls to the pooled p99.
func intervalPercentile(groups [][]float64, q float64) (float64, int) {
	var ps []float64
	for _, g := range groups {
		if len(g) < minPerInterval {
			continue
		}
		s := append([]float64(nil), g...)
		sort.Float64s(s)
		ps = append(ps, percentile(s, q))
	}
	return median(ps), len(ps)
}

// dist summarises a sample: its size, three percentiles and its maximum.
type dist struct {
	n                  int
	p50, p90, p99, max float64
}

// summarize sorts xs in place and returns its percentiles.
func summarize(xs []float64) dist {
	sort.Float64s(xs)
	return dist{n: len(xs), p50: percentile(xs, 0.50), p90: percentile(xs, 0.90), p99: percentile(xs, 0.99),
		max: percentile(xs, 1)}
}

// percentile returns the nearest-rank q-quantile of an ascending sample: the
// smallest value with at least a share q of the sample at or below it. An
// empty sample yields NaN.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
