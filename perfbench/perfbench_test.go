package main

import (
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"dlacep/internal/core"
	"dlacep/internal/dataset"
	"dlacep/internal/event"
	"dlacep/internal/pattern"
)

func TestCompletingEventIsHighestID(t *testing.T) {
	for _, tc := range []struct {
		ids  []uint64
		want uint64
	}{
		{[]uint64{3, 7, 9}, 9},
		{[]uint64{12, 4, 8}, 12}, // Kleene bindings need not arrive sorted
		{[]uint64{0}, 0},
	} {
		if got := completing(tc.ids); got != tc.want {
			t.Errorf("completing(%v) = %d, want %d", tc.ids, got, tc.want)
		}
	}
	if matchKey([]uint64{1, 2, 3}) == matchKey([]uint64{1, 2, 4}) {
		t.Error("different event sets share a key")
	}
}

func TestDetectLatencyCountsFromDueTime(t *testing.T) {
	s := newSchedule(40000) // one event every 25 µs
	if got := s.due(4); got != 100_000 {
		t.Fatalf("due(4) = %d ns, want 100000", got)
	}
	// A match completed by event 4 that reaches the benchmark at 180 µs.
	if got := s.detectNS(matchRec{last: 4, atNS: 180_000}); got != 80_000 {
		t.Errorf("latency = %d ns, want 80000", got)
	}
	// The generator stalls: event 10, due at 250 µs, is sent only at 5 ms,
	// and its match arrives 100 µs after that. The stall is the program's
	// queueing as a user would see it, so it stays in the latency.
	if got := s.detectNS(matchRec{last: 10, atNS: 5_100_000}); got != 4_850_000 {
		t.Errorf("latency after a stall = %d ns, want 4850000", got)
	}
}

func TestPercentilesCarryTheirSampleCount(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	d := summarize(xs)
	want := dist{n: 100, p50: 50, p90: 90, p99: 99, max: 100}
	if d != want {
		t.Errorf("summarize = %+v, want %+v", d, want)
	}
	if d := summarize([]float64{7}); d.n != 1 || d.p50 != 7 || d.p99 != 7 {
		t.Errorf("one sample: %+v", d)
	}
	if d := summarize(nil); d.n != 0 || !math.IsNaN(d.p50) {
		t.Errorf("empty sample: %+v", d)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestIntervalPercentileOutlastsOneStall(t *testing.T) {
	s := newSchedule(1000) // one event per ms: 500 events per interval
	var recs []matchRec
	add := func(firstID uint64, n int, latencyMS int64) {
		for i := 0; i < n; i++ {
			id := firstID + uint64(i)
			recs = append(recs, matchRec{last: id, atNS: s.due(id) + latencyMS*1e6})
		}
	}
	add(0, 100, 1)
	add(500, 100, 2)
	add(1000, 100, 40) // a stall delays every match of this interval
	add(1500, 10, 90)  // too few matches to count
	groups := byInterval(nil, recs, s)
	p90, n := intervalPercentile(groups, 0.9)
	if p90 != 2 || n != 3 {
		t.Errorf("interval p90 = %v over %d intervals, want 2 over 3", p90, n)
	}
	pooled := make([]float64, 0, len(recs))
	for _, g := range groups {
		pooled = append(pooled, g...)
	}
	if d := summarize(pooled); d.p90 != 40 || d.n != 310 {
		t.Errorf("pooled p90 = %v over %d samples, want 40 over 310", d.p90, d.n)
	}
	// A second pass's groups follow the first's instead of merging into them.
	if got := len(byInterval(groups, recs[:1], s)); got != len(groups)+1 {
		t.Errorf("second pass added %d groups, want 1", got-len(groups))
	}
}

// TestLayerFilterDecisionIdentity pins the traced wrapper to the network it
// times: on a fixed window set its Mark and MarkBatch decisions must equal
// EventNetwork.Mark and EventNetwork.MarkBatch, or the traced run would
// measure a different pipeline from the one the end-to-end run measures.
func TestLayerFilterDecisionIdentity(t *testing.T) {
	st := dataset.Stock(dataset.StockConfig{Events: 2000, Tickers: tickers, ZipfS: zipfS, Sigma: volSigma, Seed: 5})
	pat := pattern.MustParse(seqPattern)
	cfg := core.Config{MarkSize: markSize, StepSize: stepSize, Hidden: 6, Layers: 1, Seed: 3}
	net, err := core.NewEventNetwork(st.Schema, []*pattern.Pattern{pat}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	net.Emb.Fit(st)
	var windows [][]event.Event
	for lo := 0; lo+markSize <= st.Len() && len(windows) < 40; lo += stepSize {
		windows = append(windows, st.Events[lo:lo+markSize])
	}
	// An untrained network: put the threshold at the median marginal so
	// both decisions occur.
	var ps []float64
	for _, w := range windows {
		ps = append(ps, net.Marginals(w)...)
	}
	sort.Float64s(ps)
	net.Threshold = ps[len(ps)/2]

	lt := newLayerTrace(st.Len())
	f := lt.wrap(net.CloneFilter())
	kept := 0
	for i, w := range windows {
		got, want := f.Mark(w), net.Mark(w)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("window %d: Mark = %v, EventNetwork.Mark = %v", i, got, want)
		}
		for _, m := range got {
			if m {
				kept++
			}
		}
	}
	if kept == 0 || kept == len(windows)*markSize {
		t.Fatalf("degenerate window set: %d of %d events kept", kept, len(windows)*markSize)
	}
	for lo := 0; lo < len(windows); lo += shardBatch {
		batch := windows[lo:min(lo+shardBatch, len(windows))]
		want := copyMarks(net.MarkBatch(batch))
		got := copyMarks(f.MarkBatch(batch))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("batch at window %d: MarkBatch = %v, EventNetwork.MarkBatch = %v", lo, got, want)
		}
		for i, w := range batch {
			if !reflect.DeepEqual(got[i], net.Mark(w)) {
				t.Fatalf("window %d: MarkBatch row differs from EventNetwork.Mark", lo+i)
			}
		}
	}
	spans, marked := lt.totals()
	if spans.windows != int64(2*len(windows)) || spans.rows != int64(2*len(windows)*markSize) {
		t.Errorf("spans counted %d windows and %d rows", spans.windows, spans.rows)
	}
	distinct := 0
	for _, m := range marked {
		if m {
			distinct++
		}
	}
	if distinct == 0 || int64(distinct) > spans.marks {
		t.Errorf("%d distinct marked events from %d marks", distinct, spans.marks)
	}
	clone, ok := f.CloneFilter().(*layerFilter)
	if !ok || clone.net == nil || clone.net == f.net {
		t.Fatal("CloneFilter did not wrap a network clone of its own")
	}
	if !reflect.DeepEqual(clone.Mark(windows[0]), net.Mark(windows[0])) {
		t.Error("a clone decides differently from the network")
	}
}

func copyMarks(rows [][]bool) [][]bool {
	out := make([][]bool, len(rows))
	for i, r := range rows {
		out[i] = append([]bool(nil), r...)
	}
	return out
}

func TestCheckMatchesRejectsBadOutput(t *testing.T) {
	a, b, c := matchKey([]uint64{1, 2, 3}), matchKey([]uint64{2, 3, 5}), matchKey([]uint64{4, 6, 9})
	ref := &reference{keys: map[uint64]bool{a: true, b: true}}
	if n, err := checkMatches([]matchRec{{key: a}, {key: b}}, ref); err != nil || n != 2 {
		t.Errorf("exact output: n=%d err=%v", n, err)
	}
	for name, recs := range map[string][]matchRec{
		"empty":     nil,
		"duplicate": {{key: a}, {key: b}, {key: a}},
		"not exact": {{key: a}, {key: c, last: 9}},
	} {
		if _, err := checkMatches(recs, ref); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if !sameMatches([]matchRec{{key: a}, {key: b}}, []matchRec{{key: b}, {key: a}}) {
		t.Error("order changed the match set")
	}
	if sameMatches([]matchRec{{key: a}}, []matchRec{{key: b}}) {
		t.Error("different sets compared equal")
	}
}

func TestTypeGuardRejectsUnseenTypes(t *testing.T) {
	st := dataset.Stock(dataset.StockConfig{Events: 3000, Tickers: tickers, ZipfS: zipfS, Sigma: volSigma, Seed: 1})
	for _, src := range []string{seqPattern, kleenePattern} {
		if err := checkTypes(pattern.MustParse(src), st); err != nil {
			t.Errorf("%s: %v", src, err)
		}
	}
	// The generator names tickers from S1: a pattern on S0 can never match.
	err := checkTypes(pattern.MustParse("PATTERN SEQ(S0 a, S1 b) WITHIN 16"), st)
	if err == nil || !strings.Contains(err.Error(), "S0") {
		t.Errorf("S0 pattern: err = %v", err)
	}
}

func TestParseIDs(t *testing.T) {
	ids, err := parseIDs([]byte(`{"match":{"ids":[3,17,402],"binding":{"a":3,"c":402}}}`+"\n"), nil)
	if err != nil || !reflect.DeepEqual(ids, []uint64{3, 17, 402}) {
		t.Errorf("ids = %v, err = %v", ids, err)
	}
	for _, bad := range []string{`{"match":{}}`, `{"match":{"ids":[]}}`, `{"match":{"ids":[1,,2]}}`, `{"match":{"ids":[1`} {
		if _, err := parseIDs([]byte(bad), nil); err == nil {
			t.Errorf("%s: accepted", bad)
		}
	}
}

func TestHostScaleCancelsHostSpeed(t *testing.T) {
	for _, c := range []struct {
		name               string
		eps, refNS, stolen float64
	}{
		{"nominal host", 100000, refNominalNS, 0},
		{"host 25% slower", 80000, 1.25 * refNominalNS, 0},
		{"a fifth of the vCPU time stolen", 80000, refNominalNS, 0.2},
		{"both", 64000, 1.25 * refNominalNS, 0.2},
	} {
		scale := hostScale(c.refNS, c.stolen)
		if got := c.eps * scale; math.Abs(got-100000) > 1e-6 {
			t.Errorf("%s: throughput %v, want 100000", c.name, got)
		}
		// A set-up of 1 s on the fixed host takes 100000/eps s here.
		if got := 100000 / c.eps / scale; math.Abs(got-1) > 1e-12 {
			t.Errorf("%s: time %v, want 1", c.name, got)
		}
	}
	if got := hostScale(refNominalNS, 0.9); got != 2 {
		t.Errorf("steal past maxStolen: scale %v, want 2", got)
	}
}

func TestInterleavePassesKeepsItsMinimums(t *testing.T) {
	var order []string
	pass := func(kind string) func() (passResult, error) {
		return func() (passResult, error) {
			order = append(order, kind)
			return passResult{}, nil
		}
	}
	closed, open, err := interleavePasses(0, pass("closed"), pass("open"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"closed", "open", "closed", "closed"}
	if len(closed) != minClosedPasses || len(open) != 1 || !reflect.DeepEqual(order, want) {
		t.Errorf("order %v, %d closed, %d open; want %v", order, len(closed), len(open), want)
	}
}
