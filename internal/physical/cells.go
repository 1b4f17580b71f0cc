package physical

import (
	"slices"

	"repro/internal/memo"
)

// cellIndex numbers the (group, order) pairs an evaluation can ever ask
// for — the cells — consecutively, group by group and ascending by order id
// within a group. Every per-(group, order) table of a worker and of a
// SharedCache namespace is indexed by cell and sized by their count; keys,
// snapshots and the structural fingerprint keep (group, order). See
// "Hot-path representation" in the package comment for the closure the cells
// are and why filter-linked groups share one order list.
type cellIndex struct {
	start []int32 // group g owns cells start[g] … start[g+1]-1; start[g] is its any-order cell
	ord   []ordID // the order of each cell
	// useKeys[g] reports whether g has a shareable slot: only then can a
	// use-cost key of its cells exist (see cacheKey).
	useKeys []bool
}

func (ix cellIndex) len() int { return len(ix.ord) }

// anyCell is the cell of (g, any order): every group has one, and order 0
// sorts first.
func (ix cellIndex) anyCell(g memo.GroupID) int { return int(ix.start[g]) }

// cell looks a pair up; ok is false when no evaluation can ask for it (or
// the group is not of this DAG). Templates carry their children's cells, so
// only entry points that are handed a key — a snapshot import, a test — pay
// for the search.
func (ix cellIndex) cell(g memo.GroupID, ord ordID) (cell int, ok bool) {
	if g < 0 || int(g) >= len(ix.start)-1 {
		return 0, false
	}
	lo, hi := int(ix.start[g]), int(ix.start[g+1])
	k, ok := slices.BinarySearch(ix.ord[lo:hi], ord)
	return lo + k, ok
}

// fillCells compiles the static demand closure into the cell index and hands
// every template its children's cells. What price can ask of a child is
// fixed by the template — any order, or the one order a merge join or a
// sort-based aggregation needs — except under the order-preserving filter,
// which forwards whatever is asked of its own group; and compute(g, any)
// walks every template of g. So a group is asked for any order, for the fixed
// orders its parents' templates name, and for what a filter above it is
// asked: the groups a chain of filters links are given one order list, the
// union of their fixed demands, which is what makes the forward an addition
// (childReq.cell). The lists come out of one counting pass over the
// templates; nothing here is sized by groups × orders.
func (s *space) fillCells() {
	n := len(s.tmpls)
	// Union-find over passthrough links: link[g] leads to the group whose
	// list g shares.
	link := make([]int32, n)
	for g := range link {
		link[g] = int32(g)
	}
	find := func(g int32) int32 {
		for link[g] != g {
			link[g] = link[link[g]]
			g = link[g]
		}
		return g
	}
	for g := range s.tmpls {
		for i := range s.tmpls[g] {
			if t := &s.tmpls[g][i]; t.passthrough {
				if a, b := find(int32(g)), find(int32(t.child[0].g)); a != b {
					link[b] = a
				}
			}
		}
	}
	// The fixed demands on each list, gathered into one backing array:
	// count, prefix-sum, fill, then sort and drop repeats per list.
	fixed := func(visit func(list int32, ord ordID)) {
		for g := range s.tmpls {
			for i := range s.tmpls[g] {
				t := &s.tmpls[g][i]
				for ci := uint8(0); ci < t.nchild && !t.passthrough; ci++ {
					if c := &t.child[ci]; c.ord != 0 {
						visit(find(int32(c.g)), c.ord)
					}
				}
			}
		}
	}
	at := make([]int32, n+1) // at[l] walks list l's part of demand, start to end
	fixed(func(l int32, _ ordID) { at[l+1]++ })
	for l := 0; l < n; l++ {
		at[l+1] += at[l]
	}
	demand := make([]ordID, at[n])
	fixed(func(l int32, ord ordID) { demand[at[l]] = ord; at[l]++ })
	lists := make([][]ordID, n)
	for l, from := 0, int32(0); l < n; from, l = at[l], l+1 {
		list := demand[from:at[l]]
		slices.Sort(list)
		lists[l] = slices.Compact(list)
	}

	start := make([]int32, n+1)
	for g := 0; g < n; g++ {
		start[g+1] = start[g] + 1 + int32(len(lists[find(int32(g))]))
	}
	ord := make([]ordID, start[n])
	useKeys := make([]bool, n)
	for g := 0; g < n; g++ {
		copy(ord[start[g]+1:], lists[find(int32(g))]) // ord[start[g]] stays 0: any order
		useKeys[g] = s.SI.Pos(memo.GroupID(g)) >= 0
	}
	s.cells = cellIndex{start: start, ord: ord, useKeys: useKeys}
	for g := range s.tmpls {
		for i := range s.tmpls[g] {
			t := &s.tmpls[g][i]
			for ci := uint8(0); ci < t.nchild; ci++ {
				c := &t.child[ci]
				if t.passthrough {
					c.cell = start[c.g] - start[g]
				} else {
					cell, _ := s.cells.cell(c.g, c.ord)
					c.cell = int32(cell)
				}
			}
		}
	}
}
