package physical

import (
	"math/bits"

	"repro/internal/memo"
)

// CostBreakdown decomposes bc(S) into the components that belong to
// individual queries versus the shared materializations. bc(S) is
//
//	Σ_{s∈S} (compute(s) + matWriteCost(s))  +  Σ_q useCost(root_q)
//
// (see bestCostOn): every term after the materialization sum is owned by
// exactly one query root, which is what lets a batched serving layer
// attribute an exact cost share to each member of a coalesced batch.
// Total accumulates the terms in the same order as BestCost, so it is
// bit-identical to BestCost(mat) on a warm worker.
type CostBreakdown struct {
	// Total is bc(mat), bit-identical to BestCost(mat).
	Total float64
	// MatGroups lists the materialized groups in ascending id order, and
	// MatCosts[i] is MatGroups[i]'s compute + materialize-write cost.
	MatGroups []memo.GroupID
	MatCosts  []float64
	// RootUse[i] is the use cost of QueryRoots[i] under the set: the cost
	// of answering that query given the materializations.
	RootUse []float64
}

// CostBreakdown evaluates bc(mat) on worker 0 and returns its per-root /
// per-materialization decomposition. It counts as one bestCost invocation
// in the searcher stats and warms the same caches, so calling it after a
// run re-derives the final set's breakdown at cache-hit cost.
func (s *Searcher) CostBreakdown(mat NodeSet) CostBreakdown {
	w := s.worker(0)
	w.stats.BCCalls++
	w.begin(mat.bits, nil)
	bd := CostBreakdown{RootUse: make([]float64, len(s.M.QueryRoots))}
	total := 0.0
	for _, id := range w.matGroups() {
		c := w.compute(id, 0, s.cells.anyCell(id)) + s.writeArr[id]
		bd.MatGroups = append(bd.MatGroups, id)
		bd.MatCosts = append(bd.MatCosts, c)
		total += c
	}
	for i, root := range s.M.QueryRoots {
		u := w.useCost(root, 0, s.cells.anyCell(root))
		bd.RootUse[i] = u
		total += u
	}
	bd.Total = total
	w.flushStats()
	return bd
}

// RootsReaching returns the indices (into Memo.QueryRoots) of the query
// roots whose cone contains the given shareable group, in ascending order.
// It returns nil for non-shareable groups. This is the structural reach
// rootMask the lazy-greedy pruning uses (SharesQueryRoot), exposed so an
// attribution layer can decide which batch members a materialized node
// serves. Safe for concurrent use after construction.
func (s *Searcher) RootsReaching(g memo.GroupID) []int {
	sl := s.SI.Pos(g)
	if sl < 0 {
		return nil
	}
	var out []int
	for wi, wv := range s.rootMask[sl] {
		for v := wv; v != 0; v &= v - 1 {
			out = append(out, wi*64+bits.TrailingZeros64(v))
		}
	}
	return out
}
