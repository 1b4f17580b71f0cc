//go:build cellcheck

package physical

import (
	"fmt"
	"math"
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

// checkUseBucket panics when a use-cost bucket is made for a cell of a group
// with no shareable slot: no set holds the group, so no such key exists.
func (s *space) checkUseBucket(i int) {
	if i&1 != kindUse {
		return
	}
	if g := s.cells.cellGroup(i >> 1); !s.cells.useKeys[g] {
		panic(fmt.Sprintf("physical: a use-cost L1 bucket made for group %d, which has no shareable slot", g))
	}
}

// checkPure panics when a store finds its key already cached with a value of
// other bits: a cost that is not a pure function of its key, which the run's
// shared L1 would hand to every worker of the batch.
func checkPure(mask uint64, have, v float64) {
	if math.Float64bits(have) != math.Float64bits(v) {
		panic(fmt.Sprintf("physical: mask %#x stored as %v, already cached as %v: a cached cost is not a pure function of its key", mask, v, have))
	}
}

// checkUnclaimed panics when the position a store has just claimed is live:
// the batch's workers may be reading it, and a write would tear the entry
// under them.
func checkUnclaimed(b *l1Bucket, j int) {
	if atomic.LoadUint64(&b.occ)&(1<<uint(j)) != 0 {
		panic(fmt.Sprintf("physical: a store claims live position %d of an L1 bucket", j))
	}
}

// batchCheck counts the workers of the batch in flight that are running
// (Searcher.runBatch), and holds the operator flags the searcher's first
// evaluation found (Searcher.worker).
type batchCheck struct {
	running       atomic.Int32
	seen          bool
	extended, inc bool
}

// flags panics when the operator flags differ from those of the searcher's
// first evaluation: its memo, L1 and namespace were priced under those, and
// a searcher's flags are set before it evaluates and never changed.
func (c *batchCheck) flags(extended, inc bool) {
	if !c.seen {
		c.seen, c.extended, c.inc = true, extended, inc
		return
	}
	if extended != c.extended || inc != c.inc {
		panic(fmt.Sprintf("physical: operator flags changed after the first evaluation (ExtendedOps %t → %t, Incremental %t → %t)", c.extended, extended, c.inc, inc))
	}
}

func (c *batchCheck) enter() { c.running.Add(1) }
func (c *batchCheck) leave() { c.running.Add(-1) }

// alone panics when a store is about to overwrite a live L1 position while
// another worker of the batch runs: it may be reading the position, and would
// see a torn entry.
func (c *batchCheck) alone() {
	if n := c.running.Load(); n > 1 {
		panic(fmt.Sprintf("physical: an L1 store overwrites a live position while %d workers of a batch run", n))
	}
}
