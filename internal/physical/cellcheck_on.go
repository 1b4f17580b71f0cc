//go:build cellcheck

package physical

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync/atomic"

	"repro/internal/memo"
)

const cellCheck = true

// checkCell panics unless cell is the index's cell of (g, ord): a pair the
// closure missed, or a template that carries another pair's cell. The miss
// paths and plan extraction call it — every pair an evaluation reaches is
// first reached through one of them.
func (s *space) checkCell(g memo.GroupID, ord ordID, cell int) {
	if want, ok := s.cells.cell(g, ord); !ok || want != cell {
		panic(fmt.Sprintf("physical: (group %d, order %d) priced at cell %d; the index says %d (in the closure: %t)", g, ord, cell, want, ok))
	}
}

// cellGroup is the group that owns a cell.
func (ix cellIndex) cellGroup(cell int) memo.GroupID {
	return memo.GroupID(sort.Search(len(ix.start)-1, func(g int) bool { return int(ix.start[g+1]) > cell }))
}

// checkUseKey panics on a use-cost probe or store (L1 index i = 2*cell+kind)
// for a group outside the worker's set: there its use cost is its compute
// cost, which the compute key answers (cacheKey).
func (w *worker) checkUseKey(i int) {
	if i&1 != kindUse {
		return
	}
	if g := w.s.cells.cellGroup(i >> 1); !w.matHas(g) {
		panic(fmt.Sprintf("physical: a use-cost key of group %d, which is outside the set, reached the cache", g))
	}
}

// checkOverlayKey panics on a probe or store (L1 index i = 2*cell+kind) of
// a cell the evaluation in flight re-prices for itself alone — its group
// carries the overlay stamp — that is neither one of the evaluation's entry
// terms nor priced by plan extraction: the keep rule (worker.keeps) leaves
// such a key out of the caches. It restates the rule rather than calling
// keeps, so a miss path that stops asking keeps trips it.
func (w *worker) checkOverlayKey(i int) {
	cell, kind := i>>1, i&1
	g := w.s.cells.cellGroup(cell)
	if w.overlay == 0 || w.groups[g].ep != w.overlay || w.extracting {
		return // no evaluation in flight re-prices a group for itself alone, or not g
	}
	if cell == w.s.cells.anyCell(g) && (w.s.isRoot[g] || kind == kindComp && w.matHas(g)) {
		return
	}
	panic(fmt.Sprintf("physical: (group %d, cell %d, kind %d), re-priced for the evaluation in flight alone, reached the cache", g, cell, kind))
}

// checkPure panics when a store finds its key already cached with a value of
// other bits: a cost that is not a pure function of its key, which the run's
// shared L1 would hand to every worker of the batch.
func checkPure(mask uint64, have, v float64) {
	if math.Float64bits(have) != math.Float64bits(v) {
		panic(fmt.Sprintf("physical: mask %#x stored as %v, already cached as %v: a cached cost is not a pure function of its key", mask, v, have))
	}
}

// checkUnclaimed panics when the position j a store has just claimed is live
// in occ, its bucket's occupancy: the batch's workers may be reading it, and
// a write would tear the entry under them.
func checkUnclaimed(occ uint64, j int) {
	if occ&(1<<uint(j)) != 0 {
		panic(fmt.Sprintf("physical: a store claims live position %d of an L1 bucket", j))
	}
}

// checkGrown panics unless the bucket that replaces a full head holds every
// entry of the head, at its bits, and at most one more: a replacement that
// dropped or altered a key would hide it from every later probe.
func checkGrown(h *l1Small, nb *l1Bucket) {
	for j, e := range h.entries {
		if v, ok := nb.lookup(e.mask); !ok || math.Float64bits(v) != math.Float64bits(e.val) {
			panic(fmt.Sprintf("physical: the bucket replacing a full head lost position %d (mask %#x)", j, e.mask))
		}
	}
	if n := bits.OnesCount64(atomic.LoadUint64(&nb.occ)); n != l1SmallCap && n != l1SmallCap+1 {
		panic(fmt.Sprintf("physical: the bucket replacing a full head of %d entries holds %d", l1SmallCap, n))
	}
}

// flagCheck holds the operator flags the searcher's first evaluation found
// (Searcher.worker).
type flagCheck struct {
	seen          bool
	extended, inc bool
}

// flags panics when the operator flags differ from those of the searcher's
// first evaluation: its memo, L1 and namespace were priced under those, and
// a searcher's flags are set before it evaluates and never changed.
func (c *flagCheck) flags(extended, inc bool) {
	if !c.seen {
		c.seen, c.extended, c.inc = true, extended, inc
		return
	}
	if extended != c.extended || inc != c.inc {
		panic(fmt.Sprintf("physical: operator flags changed after the first evaluation (ExtendedOps %t → %t, Incremental %t → %t)", c.extended, extended, c.inc, inc))
	}
}
