package physical

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/cost"
	"repro/internal/logical"
	"repro/internal/memo"
	"repro/internal/tpcd"
	"repro/internal/workload"
)

// walkMemos are the DAGs the differential walk moves between: generated
// 16/24/32-query batches and the paper's BQ1–6, built once per process.
var walkMemos = sync.OnceValue(func() []*memo.Memo {
	batches := []*logical.Batch{}
	for _, q := range []int{16, 24, 32} {
		batches = append(batches, workload.MustGenerate(workload.DefaultSpec(q, 0.25)))
	}
	for i := 1; i <= 6; i++ {
		batches = append(batches, tpcd.BQ(i))
	}
	var out []*memo.Memo
	for _, b := range batches {
		m, err := memo.Build(tpcd.Catalog(1), cost.Default(), b)
		if err != nil {
			panic(err) // a broken fixture, not a test outcome
		}
		out = append(out, m)
	}
	return out
})

// deltaWalk is the differential driver behind TestDeltaWalkMatchesFreshSearcher
// and FuzzBestCostParity: the bytes steer one long-lived searcher — and the
// pooled workers and SharedCache it hands to its successors — through every
// way a set can follow another, and each total, breakdown term and plan total
// must be the bit a searcher that reuses nothing produces. A searcher's flags
// are fixed before it evaluates, so a flag change is a successor over the
// same memo that takes the workers and the cache. The reference
// keeps no base and no cache (Incremental off: every call re-stamps every
// group), and every 64th check is also made against a searcher created for
// it, whose worker has never priced anything. A round's width is the bytes'
// choice of GOMAXPROCS 1, 2 or 4, restored when the walk ends.
func deltaWalk(t testing.TB, data []byte) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	memos := walkMemos()
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1])
	}

	cache := NewSharedCache()
	type refKey struct {
		m        *memo.Memo
		extended bool
	}
	refs := map[refKey]*Searcher{}
	var (
		m      *memo.Memo
		s, ref *Searcher
		sh     []memo.GroupID
		cur    NodeSet
		checks int
	)
	// bind makes s a new searcher over to with the given flags, attached to
	// the walk's cache; a successor over the same memo keeps the set.
	bind := func(to *memo.Memo, extended, incremental bool) {
		keep := to == m
		m, sh = to, to.Shareable()
		s = NewSearcher(m)
		s.AttachSharedCache(cache)
		s.ExtendedOps, s.Incremental = extended, incremental
		if refs[refKey{m, extended}] == nil {
			r := NewSearcher(m)
			r.ExtendedOps, r.Incremental = extended, false
			refs[refKey{m, extended}] = r
		}
		ref = refs[refKey{m, extended}]
		if !keep {
			cur = s.NewNodeSet()
		}
	}
	// successor hands s's learning and workers to a searcher over the same
	// memo with other flags, as a session's next run of the batch would.
	successor := func(extended, incremental bool) {
		s.PublishCache()
		bind(m, extended, incremental)
	}
	bind(memos[next()%len(memos)], false, true)

	want := func(set NodeSet) float64 {
		v := ref.BestCost(set)
		if checks++; checks%64 == 0 {
			fresh := NewSearcher(m)
			fresh.ExtendedOps = s.ExtendedOps
			if f := fresh.BestCost(set); f != v {
				t.Fatalf("reference disagrees with itself: no-reuse searcher %v, new searcher %v", v, f)
			}
		}
		return v
	}
	flip := func(set NodeSet, id memo.GroupID) {
		if set.Has(id) {
			p := s.SI.Pos(id)
			set.bits[p/64] &^= 1 << uint(p%64)
		} else {
			set.Add(id)
		}
	}

	for step := 0; pos < len(data); step++ {
		op := next() % 32
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("step %d op %d (%d groups, %d shareable, |S| = %d, ext %t inc %t): %s", step, op,
				m.NumGroups(), len(sh), cur.Len(), s.ExtendedOps, s.Incremental, fmt.Sprintf(format, args...))
		}
		if len(sh) == 0 && op < 21 {
			op = 24 // nothing to toggle on this DAG: move on
		}
		switch {
		case op < 12: // toggle 1–3 nodes, price alone
			for n := 1 + op%3; n > 0; n-- {
				flip(cur, sh[next()%len(sh)])
			}
			if got, w := s.BestCost(cur), want(cur); got != w {
				fail("bc after a toggle = %v, want %v", got, w)
			}
		case op < 20: // a round of one-node neighbours
			par := []int{1, 2, 4}[next()%3]
			runtime.GOMAXPROCS(par)
			if next()%2 == 0 {
				s.batchMark = s.Stats // no evaluation since the last batch: fan out
			}
			sets := make([]NodeSet, 1+next()%16)
			for i := range sets {
				sets[i] = cur.Clone()
				flip(sets[i], sh[next()%len(sh)])
			}
			var got []float64
			if next()%2 == 0 {
				// The batch as its workers see it, with the bytes instead
				// of the scheduler choosing who prices which set: a worker
				// skips sets, sits a batch out, comes back rounds later.
				s.setBatchBase(sets)
				for _, set := range sets {
					w := s.worker(next() % par)
					got = append(got, s.bestCostOn(w, set.bits))
					w.flushStats()
				}
			} else {
				var ok bool
				if got, ok = s.BestCostBatchCtx(context.Background(), sets); !ok || len(got) != len(sets) {
					fail("batch of %d returned %d, ok %t", len(sets), len(got), ok)
				}
			}
			for i := range sets {
				if w := want(sets[i]); got[i] != w {
					fail("batch at GOMAXPROCS %d, set %d of %d: bc = %v, want %v", par, i, len(sets), got[i], w)
				}
			}
		case op == 20: // far jump
			cur = s.NewNodeSet()
			for _, id := range sh {
				if next()%3 == 0 {
					cur.Add(id)
				}
			}
			if got, w := s.BestCost(cur), want(cur); got != w {
				fail("bc after a jump = %v, want %v", got, w)
			}
		case op == 21:
			plan := s.BestPlan(cur)
			if err := s.ValidatePlan(plan, cur); err != nil {
				fail("plan does not validate: %v", err)
			}
			if w := ref.BestPlan(cur); plan.Total != w.Total || plan.String() != w.String() {
				fail("plan totals %v, want %v; or the plans differ:\n%s\n%s", plan.Total, w.Total, plan, w)
			}
		case op == 22:
			got, total := s.CostBreakdown(cur), want(cur)
			w := ref.CostBreakdown(cur)
			if got.Total != total || w.Total != total || len(got.MatCosts) != len(w.MatCosts) {
				fail("breakdown total %v over %d materializations, want %v over %d", got.Total, len(got.MatCosts), w.Total, len(w.MatCosts))
			}
			for i := range w.MatCosts {
				if got.MatGroups[i] != w.MatGroups[i] || got.MatCosts[i] != w.MatCosts[i] {
					fail("breakdown: materialization %d is group %d at %v, want group %d at %v", i, got.MatGroups[i], got.MatCosts[i], w.MatGroups[i], w.MatCosts[i])
				}
			}
			for i := range w.RootUse {
				if got.RootUse[i] != w.RootUse[i] {
					fail("breakdown: root %d uses %v, want %v", i, got.RootUse[i], w.RootUse[i])
				}
			}
		case op == 23:
			if got, w := useCostOf(s, cur), useCostOf(ref, cur); got != w {
				fail("buc = %v, want %v", got, w)
			}
		case op == 24: // publish, and a successor over another DAG takes the workers
			s.PublishCache()
			bind(memos[next()%len(memos)], s.ExtendedOps, s.Incremental)
		case op == 25, op == 26: // the other operator set, same memo and cache
			successor(!s.ExtendedOps, s.Incremental)
		case op == 27:
			cache.Invalidate()
		case op == 28: // the next evaluations cross a stamp wrap
			for _, w := range s.workers {
				// Forward only: setting a clock back would hand out stamps
				// that cells already carry.
				w.clock = max(w.clock, math.MaxUint32-uint32(next()%6))
			}
		case op == 29: // publish mid-run: the searcher goes on with a pooled worker
			s.PublishCache()
		case op == 30: // reuse nothing across calls, or again reuse
			successor(s.ExtendedOps, !s.Incremental)
		default: // a neighbour priced alone: cur stays the base
			set := cur.Clone()
			flip(set, sh[next()%len(sh)])
			if got, w := s.BestCost(set), want(set); got != w {
				fail("bc of a lone neighbour = %v, want %v", got, w)
			}
		}
	}
	if got, w := s.BestCost(cur), want(cur); got != w {
		t.Fatalf("end of walk: bc = %v, want %v", got, w)
	}
}

// TestDeltaWalkMatchesFreshSearcher: seeded random walks, one starting on
// each DAG — see deltaWalk for what a walk does and what it is held to.
func TestDeltaWalkMatchesFreshSearcher(t *testing.T) {
	size := 2000 // bytes a walk: ≈ 280 steps
	if testing.Short() {
		size = 200
	}
	for start := range walkMemos() {
		rng := rand.New(rand.NewSource(int64(101 + start)))
		data := make([]byte, size)
		rng.Read(data)
		data[0] = byte(start)
		deltaWalk(t, data)
	}
}

// FuzzBestCostParity is the same walk steered by the fuzzer's bytes.
func FuzzBestCostParity(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 4; i++ {
		data := make([]byte, 96)
		rng.Read(data)
		f.Add(data)
	}
	f.Add([]byte{2, 0, 5, 12, 1, 0, 15, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 28, 0, 31, 9, 25, 31, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			data = data[:1024]
		}
		deltaWalk(t, data)
	})
}

// roundSets returns the round S ∪ {x} over every shareable node x outside a
// random S of the given size: the shape of a greedy round.
func roundSets(s *Searcher, rng *rand.Rand, size int) []NodeSet {
	sh := s.M.Shareable()
	rng.Shuffle(len(sh), func(i, j int) { sh[i], sh[j] = sh[j], sh[i] })
	base := s.NewNodeSet(sh[:size]...)
	var round []NodeSet
	for _, x := range sh[size:] {
		round = append(round, base.With(x))
	}
	return round
}

// TestDeltaCallAllocFree: once a round of one-node neighbours has been
// priced, pricing it again — every call re-stamps, logs, re-prices and rolls
// back — allocates nothing: the undo logs keep their capacity.
func TestDeltaCallAllocFree(t *testing.T) {
	s := NewSearcher(workloadMemo(t, 32))
	round := roundSets(s, rand.New(rand.NewSource(3)), 6)
	s.setBatchBase(round)
	w := s.worker(0)
	price := func() {
		for _, set := range round {
			s.bestCostOn(w, set.bits)
		}
	}
	price()
	if n := testing.AllocsPerRun(5, price); n != 0 {
		t.Fatalf("a warm round of %d one-node neighbours allocates %.0f objects, want 0", len(round), n)
	}
	if len(w.undoGroups) == 0 || len(w.undoCells) == 0 {
		t.Fatalf("the round was not priced as deltas: %d groups and %d cells on the undo log", len(w.undoGroups), len(w.undoCells))
	}
}

// BenchmarkOracleRound measures the oracle call a greedy round makes: one
// worker whose base is S, pricing S ∪ {x} for every candidate x, everything
// cached. lookups/call counts L1 and L2 hits and computed keys, groups/call
// the groups each call re-stamped and re-priced.
func BenchmarkOracleRound(b *testing.B) {
	for _, q := range []int{32, 64} {
		b.Run(fmt.Sprintf("%dx0.25", q), func(b *testing.B) {
			s := NewSearcher(workloadMemo(b, q))
			round := roundSets(s, rand.New(rand.NewSource(3)), 6)
			s.setBatchBase(round)
			w := s.worker(0)
			for _, set := range round {
				s.bestCostOn(w, set.bits)
			}
			w.stats = Stats{}
			groups := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.bestCostOn(w, round[i%len(round)].bits)
				groups += len(w.undoGroups)
			}
			b.StopTimer()
			st := w.stats
			b.ReportMetric(float64(st.CacheHits+st.SharedHits+st.ComputedKey)/float64(b.N), "lookups/call")
			b.ReportMetric(float64(groups)/float64(b.N), "groups/call")
		})
	}
}
