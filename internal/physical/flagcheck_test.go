//go:build cellcheck

package physical

import (
	"strings"
	"testing"
)

// TestFlagsFixedAfterFirstEvaluation: a searcher's operator flags are set
// before its first evaluation; flipping one after it panics in the cellcheck
// build at the next evaluation, whose memo, L1 and namespace were priced
// under the old flags.
func TestFlagsFixedAfterFirstEvaluation(t *testing.T) {
	for _, flip := range []struct {
		name string
		set  func(*Searcher)
	}{
		{"ExtendedOps", func(s *Searcher) { s.ExtendedOps = !s.ExtendedOps }},
		{"Incremental", func(s *Searcher) { s.Incremental = !s.Incremental }},
	} {
		t.Run(flip.name, func(t *testing.T) {
			s := buildSearcher(t, sharedPairQueries()...)
			s.ExtendedOps = true // before the first evaluation: allowed
			set := s.NewNodeSet(s.M.Shareable()[0])
			s.BestCost(set)
			s.BestCost(NodeSet{})
			flip.set(s)
			defer func() {
				r := recover()
				if msg, _ := r.(string); !strings.Contains(msg, "flags changed") {
					t.Fatalf("flipping %s after an evaluation: recovered %v, want the flag panic", flip.name, r)
				}
			}()
			s.BestCost(set)
		})
	}
}
