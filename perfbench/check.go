package main

import (
	"fmt"
	"sort"

	"dlacep/internal/event"
	"dlacep/internal/pattern"
)

// checkTypes refuses a pattern that names an event type the stream never
// carries: such a pattern can never match, so its CEP stage would measure
// nothing while the run still looked healthy.
func checkTypes(pat *pattern.Pattern, st *event.Stream) error {
	counts := st.TypeCounts()
	for _, typ := range pat.TypeSet() {
		if counts[typ] == 0 {
			return fmt.Errorf("pattern names type %s, which the stream never carries", typ)
		}
	}
	return nil
}

// checkMatches verifies one pass's emitted matches against the exact set and
// returns how many were emitted. No workload pattern has negation, so every
// emitted match must be an exact match (precision 1), and the pipeline
// dedups, so none may arrive twice. A pass that emits nothing is refused
// too: it would measure a pipeline that does no CEP work.
func checkMatches(recs []matchRec, ref *reference) (int, error) {
	if len(recs) == 0 {
		return 0, fmt.Errorf("the pass emitted no matches")
	}
	keys := make([]uint64, len(recs))
	for i, r := range recs {
		if !ref.keys[r.key] {
			return 0, fmt.Errorf("emitted match completed by event %d is not an exact match", r.last)
		}
		keys[i] = r.key
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for i := 1; i < len(keys); i++ {
		if keys[i] == keys[i-1] {
			return 0, fmt.Errorf("a match was emitted twice")
		}
	}
	return len(recs), nil
}

// sameMatches reports whether two passes emitted the same match set.
func sameMatches(a, b []matchRec) bool {
	if len(a) != len(b) {
		return false
	}
	ka, kb := sortedKeys(a), sortedKeys(b)
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

func sortedKeys(recs []matchRec) []uint64 {
	keys := make([]uint64, len(recs))
	for i, r := range recs {
		keys[i] = r.key
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
