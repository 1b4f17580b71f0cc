package physical

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/cost"
	"repro/internal/memo"
	"repro/internal/tpcd"
)

// naiveBestCost is bc(S) the plain way, the reference bounded pricing is held
// to: a recursion over the compiled templates with a map per call — no stamps,
// no base or undo log, no caches, no cells and no bound. It prices every
// template of every group it reaches, and sums each total in the order price
// does, so its result is the oracle's bit for bit.
func naiveBestCost(s *Searcher, set NodeSet) float64 {
	type key struct {
		g   memo.GroupID
		ord ordID
		use bool
	}
	costs := map[key]float64{}
	storedOrd := map[memo.GroupID]ordID{}
	var use, compute func(g memo.GroupID, ord ordID) float64
	price := func(t *tmpl, ord ordID) (float64, ordID, bool) {
		switch {
		case t.extended && !s.ExtendedOps:
			return 0, 0, false
		case t.passthrough:
			return use(t.child[0].g, ord) + t.local, ord, true
		case !s.sat[t.out][ord]:
			return 0, 0, false
		}
		total := 0.0
		for _, c := range t.child[:t.nchild] {
			total += use(c.g, c.ord)
		}
		lc := t.local
		if t.matGate >= 0 && !set.Has(t.matGate) {
			lc = t.localSpill
		}
		return total + lc, t.out, true
	}
	compute = func(g memo.GroupID, ord ordID) float64 {
		if v, ok := costs[key{g, ord, false}]; ok {
			return v
		}
		best := inf
		for i := range s.tmpls[g] {
			if v, _, ok := price(&s.tmpls[g][i], ord); ok && v < best {
				best = v
			}
		}
		if ord != 0 {
			if v := compute(g, 0) + s.sortArr[g]; v < best {
				best = v
			}
		}
		costs[key{g, ord, false}] = best
		return best
	}
	// stored is the order the cheapest unconstrained plan of g delivers.
	stored := func(g memo.GroupID) ordID {
		if o, ok := storedOrd[g]; ok {
			return o
		}
		best, out := inf, ordID(0)
		for i := range s.tmpls[g] {
			if v, o, ok := price(&s.tmpls[g][i], 0); ok && v < best {
				best, out = v, o
			}
		}
		storedOrd[g] = out
		return out
	}
	use = func(g memo.GroupID, ord ordID) float64 {
		if v, ok := costs[key{g, ord, true}]; ok {
			return v
		}
		v := compute(g, ord)
		if set.Has(g) {
			alt := s.readArr[g]
			if !s.sat[stored(g)][ord] {
				alt += s.sortArr[g]
			}
			if alt < v {
				v = alt
			}
		}
		costs[key{g, ord, true}] = v
		return v
	}
	total := 0.0
	for _, g := range set.Groups() {
		total += compute(g, 0) + s.writeArr[g]
	}
	for _, r := range s.M.QueryRoots {
		total += use(r, 0)
	}
	return total
}

// TestBoundedPricingMatchesNaive holds the bounded oracle to naiveBestCost,
// bit for bit, over the walk's DAGs (the generated 16-, 24- and 32-query
// batches workloadMemo builds, and BQ1–6) under every setting of the operator
// flags: random sets and greedy-round-shaped batches (roundSets), priced one
// at a time through BestCost and fanned out through BestCostBatchCtx at
// GOMAXPROCS 1 and 4. Other parity tests compare against a searcher with
// Incremental off, which runs the same bounded price; this reference prunes
// nothing, so an unsound bound shows here.
func TestBoundedPricingMatchesNaive(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for mi, m := range walkMemos() {
		for flags := 0; flags < 4; flags++ {
			extended, incremental := flags&1 != 0, flags&2 != 0
			mk := func() *Searcher {
				s := NewSearcher(m)
				s.ExtendedOps, s.Incremental = extended, incremental
				return s
			}
			s := mk()
			rng := rand.New(rand.NewSource(int64(31 + mi)))
			batches := [][]NodeSet{randomSets(s, rng, 8)}
			if sh := len(m.Shareable()); sh > 1 {
				batches = append(batches, roundSets(s, rng, sh/3), roundSets(s, rng, 1))
			}
			want := make([][]float64, len(batches))
			for bi, sets := range batches {
				for _, set := range sets {
					want[bi] = append(want[bi], naiveBestCost(s, set))
				}
			}
			check := func(how string, bi, i int, got float64) {
				t.Helper()
				if w := want[bi][i]; math.Float64bits(got) != math.Float64bits(w) {
					t.Fatalf("DAG %d ext %t inc %t, %s: batch %d set %d of %d: bc = %v, the naive recursion says %v",
						mi, extended, incremental, how, bi, i, len(batches[bi]), got, w)
				}
			}
			for bi, sets := range batches {
				for i, set := range sets {
					check("BestCost", bi, i, s.BestCost(set))
				}
			}
			for _, par := range []int{1, 4} {
				runtime.GOMAXPROCS(par)
				b := mk()
				for bi, sets := range batches {
					b.batchMark = b.Stats // fan out, whatever the last batch computed
					got, ok := b.BestCostBatchCtx(context.Background(), sets)
					if !ok || len(got) != len(sets) {
						t.Fatalf("DAG %d: a batch of %d returned %d, ok %t", mi, len(sets), len(got), ok)
					}
					for i, v := range got {
						check(fmt.Sprintf("BestCostBatchCtx at GOMAXPROCS %d", par), bi, i, v)
					}
				}
			}
		}
	}
}

// TestCostPremise checks what bounded pricing rests on, as the cellcheck
// build does on every compile: every local, spill, sort, read and write cost
// is finite and not negative — on the walk's DAGs and on BQ1–6 at scale
// factors 1 and 100.
func TestCostPremise(t *testing.T) {
	memos := append([]*memo.Memo(nil), walkMemos()...)
	for i := 1; i <= 6; i++ {
		m, err := memo.Build(tpcd.Catalog(100), cost.Default(), tpcd.BQ(i))
		if err != nil {
			t.Fatalf("BQ%d at SF100: %v", i, err)
		}
		memos = append(memos, m)
	}
	for i, m := range memos {
		if err := NewSearcher(m).premise(); err != nil {
			t.Errorf("DAG %d: %v", i, err)
		}
	}
}
