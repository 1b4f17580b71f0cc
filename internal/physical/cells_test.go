package physical

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/cost"
	"repro/internal/memo"
	"repro/internal/tpcd"
	"repro/internal/workload"
)

type pair struct {
	g   memo.GroupID
	ord ordID
}

// demanded is the reference the cell index is held to: the (group, order)
// pairs price's rules reach from use(root, any) of every query root and
// compute(g, any) of every shareable group under the searcher's operator
// flags, found the naive way — a map and a recursion, no index.
func demanded(s *Searcher) map[pair]bool {
	seen := map[pair]bool{}
	var visit func(g memo.GroupID, ord ordID)
	visit = func(g memo.GroupID, ord ordID) {
		if seen[pair{g, ord}] {
			return
		}
		seen[pair{g, ord}] = true
		for i := range s.tmpls[g] {
			t := &s.tmpls[g][i]
			switch {
			case t.extended && !s.ExtendedOps:
			case t.passthrough:
				visit(t.child[0].g, ord)
			case s.sat[t.out][ord]:
				for _, c := range t.child[:t.nchild] {
					visit(c.g, c.ord)
				}
			}
		}
		if ord != 0 {
			visit(g, 0) // the sort enforcer; stored(g) asks what this asks
		}
	}
	for _, r := range s.M.QueryRoots {
		visit(r, 0)
	}
	for _, g := range s.M.Shareable() {
		visit(g, 0)
	}
	return seen
}

// liveCells returns the cells of worker 0 that hold a cost for its current
// set, as (group, order) pairs: what the evaluations since the last re-stamp
// of their groups touched.
func liveCells(s *Searcher) map[pair]bool {
	w, live := s.workers[0], map[pair]bool{}
	for g := 0; g < s.M.NumGroups(); g++ {
		for cell := s.cells.start[g]; cell < s.cells.start[g+1]; cell++ {
			if ep := w.groups[g].ep; w.useMemo[cell].ep == ep || w.compMemo[cell].ep == ep {
				live[pair{memo.GroupID(g), s.cells.ord[cell]}] = true
			}
		}
	}
	return live
}

// TestCellsCoverEveryDemand holds the index to the closure it claims to be,
// over the walk's DAGs under all four operator-flag settings:
//
//   - closed: from every cell, each template's children land on the cell the
//     index gives their (group, order) — the filter's forward included, for
//     every order of its group's list. With the entry points asking only for
//     any-order cells, which every group has, every pair useCost / compute /
//     stored / extractUse / extractCompute can reach is then priced at its
//     own cell. (Under -tags cellcheck the miss paths and plan extraction
//     assert exactly that on every evaluation of every test.)
//   - not short: every demanded pair has a cell.
//   - not padded beyond the shared lists: bc(∅) from nothing touches the
//     demanded pairs and no other, evaluations of other sets and BestPlan
//     touch nothing outside them, and on the generated DAGs the cells are at
//     most 3 × the demanded pairs.
func TestCellsCoverEveryDemand(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for mi, m := range walkMemos() {
		base := NewSearcher(m)
		ix := base.cells
		for g := range base.tmpls {
			for cell := int(ix.start[g]); cell < int(ix.start[g+1]); cell++ {
				for i := range base.tmpls[g] {
					tm := &base.tmpls[g][i]
					for _, c := range tm.child[:tm.nchild] {
						ord, at := c.ord, int(c.cell)
						if tm.passthrough {
							ord, at = ix.ord[cell], cell+int(c.cell)
						}
						if want, ok := ix.cell(c.g, ord); !ok || want != at {
							t.Fatalf("DAG %d group %d cell %d template %d (%s): child (%d, order %d) is priced at cell %d, the index says %d (has one: %t)",
								mi, g, cell, i, tm.op, c.g, ord, at, want, ok)
						}
					}
				}
			}
			if ix.ord[ix.start[g]] != 0 {
				t.Fatalf("DAG %d group %d: first cell is order %d, not any order", mi, g, ix.ord[ix.start[g]])
			}
		}

		for flags := 0; flags < 2; flags++ {
			s := NewSearcher(m)
			s.ExtendedOps, s.Incremental = flags&1 != 0, false
			want := demanded(s)
			for p := range want {
				if _, ok := ix.cell(p.g, p.ord); !ok {
					t.Fatalf("DAG %d flags %d: (group %d, order %d) can be asked for and has no cell", mi, flags, p.g, p.ord)
				}
			}
			s.BestCost(NodeSet{})
			if got := liveCells(s); !reflect.DeepEqual(got, want) {
				t.Fatalf("DAG %d flags %d: bc(∅) touched %d pairs, the rules demand %d", mi, flags, len(got), len(want))
			}
			for _, set := range randomSets(s, rng, 6) {
				s.BestCost(set)
				s.BestPlan(set)
				for p := range liveCells(s) {
					if !want[p] {
						t.Fatalf("DAG %d flags %d: an evaluation touched (group %d, order %d), which the rules never demand", mi, flags, p.g, p.ord)
					}
				}
			}
			if flags == 1 {
				ratio := float64(ix.len()) / float64(len(want))
				t.Logf("DAG %d: %d groups × %d orders = %d slots; %d demanded, %d cells (%.2f ×, %.1f %% of slots)", mi, m.NumGroups(), s.numOrds,
					m.NumGroups()*s.numOrds, len(want), ix.len(), ratio, 100*float64(ix.len())/float64(m.NumGroups()*s.numOrds))
				if mi < 3 && ratio > 3 {
					t.Fatalf("DAG %d: %d cells for %d demanded pairs: the shared order lists pad the closure %.2f ×, want ≤ 3 ×", mi, ix.len(), len(want), ratio)
				}
			}
		}
	}
}

// TestCellIndexDeterministic: two compiles of one memo's templates and a
// rebuilt memo of the same batch number their cells identically, so a
// SharedCache table shaped by one searcher serves the other.
func TestCellIndexDeterministic(t *testing.T) {
	m := workloadMemo(t, 24)
	a, again, rebuilt := NewSearcher(m), compile(m), NewSearcher(workloadMemo(t, 24))
	for _, other := range []*space{again, &rebuilt.space} {
		if !reflect.DeepEqual(a.cells, other.cells) {
			t.Fatal("one batch compiled to two cell numberings")
		}
		for g := range a.tmpls {
			for i := range a.tmpls[g] {
				if a.tmpls[g][i].child != other.tmpls[g][i].child {
					t.Fatalf("group %d template %d: children %+v and %+v", g, i, a.tmpls[g][i].child, other.tmpls[g][i].child)
				}
			}
		}
	}

	cache := NewSharedCache()
	a.AttachSharedCache(cache)
	rebuilt.AttachSharedCache(cache)
	sets := randomSets(a, rand.New(rand.NewSource(19)), 12)
	var want []float64
	for _, set := range sets {
		want = append(want, a.BestCost(set))
	}
	a.PublishCache()
	for i, set := range sets {
		if got := rebuilt.BestCost(rebuilt.NewNodeSet(set.Groups()...)); got != want[i] {
			t.Fatalf("set %d: %v from the table the other searcher shaped, %v computed", i, got, want[i])
		}
	}
	if rebuilt.ComputedKey != 0 || rebuilt.SharedHits == 0 {
		t.Fatalf("the rebuilt memo's searcher computed %d keys with %d shared hits; the published run covers every set", rebuilt.ComputedKey, rebuilt.SharedHits)
	}
}

// memo256 is the stress tier's DAG, built once per process.
var memo256 = sync.OnceValue(func() *memo.Memo {
	m, err := memo.Build(tpcd.Catalog(1), cost.Default(), workload.MustGenerate(workload.DefaultSpec(256, 0.25)))
	if err != nil {
		panic(err) // a broken fixture, not a test outcome
	}
	return m
})

// TestCompileBytesPerTemplate bounds what compiling the search space
// allocates on the 256-query DAG, where groups × orders is 2.4 M: the
// templates, the order registry with its satisfies matrix, and arrays sized
// by groups, templates, shareable nodes and cells. One more array sized by
// groups × orders — even of bytes — does not fit under the bound.
func TestCompileBytesPerTemplate(t *testing.T) {
	m := memo256()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sp := compile(m)
	runtime.ReadMemStats(&after)
	tmpls := 0
	for _, ts := range sp.tmpls {
		tmpls += len(ts)
	}
	got := after.TotalAlloc - before.TotalAlloc
	slots := m.NumGroups() * sp.numOrds
	t.Logf("%d groups × %d orders = %d slots, %d templates, %d cells: compile allocated %d B (%.0f B/template)",
		m.NumGroups(), sp.numOrds, slots, tmpls, sp.cells.len(), got, float64(got)/float64(tmpls))
	limit := uint64(500 * tmpls)
	if got > limit {
		t.Fatalf("compile allocated %d B for %d templates, want ≤ %d (500 B a template)", got, tmpls, limit)
	}
	if got+uint64(slots) <= limit {
		t.Fatalf("the bound is loose: %d B and one byte per slot (%d) still fit under %d", got, slots, limit)
	}
}
