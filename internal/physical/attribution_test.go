package physical

import (
	"math/rand"
	"testing"

	"repro/internal/memo"
)

// The breakdown's components must reassemble to exactly BestCost, for the
// empty set and for arbitrary materialization sets.
func TestCostBreakdownMatchesBestCost(t *testing.T) {
	s := buildSearcher(t, sharedPairQueries()...)
	sh := s.M.Shareable()
	r := rand.New(rand.NewSource(11))
	sets := []NodeSet{{}, s.NewNodeSet()}
	for trial := 0; trial < 20; trial++ {
		set := s.NewNodeSet()
		for _, id := range sh {
			if r.Intn(2) == 0 {
				set.Add(id)
			}
		}
		sets = append(sets, set)
	}
	for i, set := range sets {
		want := s.BestCost(set)
		bd := s.CostBreakdown(set)
		if bd.Total != want {
			t.Fatalf("set %d: breakdown Total=%v, BestCost=%v", i, bd.Total, want)
		}
		sum := 0.0
		for _, c := range bd.MatCosts {
			sum += c
		}
		for _, u := range bd.RootUse {
			sum += u
		}
		if diff := sum - want; diff > 1e-9*want || diff < -1e-9*want {
			t.Fatalf("set %d: component sum %v != BestCost %v", i, sum, want)
		}
		if len(bd.MatGroups) != set.Len() || len(bd.MatCosts) != set.Len() {
			t.Fatalf("set %d: %d mat entries for a set of %d", i, len(bd.MatGroups), set.Len())
		}
		if len(bd.RootUse) != len(s.M.QueryRoots) {
			t.Fatalf("set %d: %d root entries for %d roots", i, len(bd.RootUse), len(s.M.QueryRoots))
		}
	}
}

// RootsReaching must agree with SharesQueryRoot's rootMask semantics and
// cover every shareable node with at least one root.
func TestRootsReachingCoversShareables(t *testing.T) {
	s := buildSearcher(t, sharedPairQueries()...)
	for _, id := range s.M.Shareable() {
		roots := s.RootsReaching(id)
		if len(roots) == 0 {
			t.Fatalf("shareable group %d reaches no query root", id)
		}
		for _, ri := range roots {
			if ri < 0 || ri >= len(s.M.QueryRoots) {
				t.Fatalf("group %d: root index %d out of range", id, ri)
			}
			// The root's descendant cone must actually contain the group.
			root := s.M.QueryRoots[ri]
			if !s.SI.Descendants(root).HasSlot(s.SI.Pos(id)) {
				t.Fatalf("group %d attributed to root %d but not in its cone", id, ri)
			}
		}
	}
	// Non-shareable groups have no slot and report nil.
	for gi := 0; gi < s.M.NumGroups(); gi++ {
		id := s.M.Group(memo.GroupID(gi)).ID
		if s.SI.Pos(id) < 0 && s.RootsReaching(id) != nil {
			t.Fatalf("non-shareable group %d reports roots", id)
		}
	}
}
