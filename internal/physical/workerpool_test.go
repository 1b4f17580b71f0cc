package physical

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/cost"
	"repro/internal/memo"
	"repro/internal/tpcd"
	"repro/internal/workload"
)

// sameCosts prices the sets on s and on a searcher of its own over the same
// memo with the same flags, no cache attached, and fails on any difference.
func sameCosts(t *testing.T, what string, s *Searcher, sets []NodeSet) {
	t.Helper()
	fresh := NewSearcher(s.M)
	fresh.ExtendedOps = s.ExtendedOps
	for i, set := range sets {
		if got, want := s.BestCost(set), fresh.BestCost(set); got != want {
			t.Fatalf("%s: set %d: bc = %v, a fresh worker says %v", what, i, got, want)
		}
	}
}

// The search space is compiled once per memo and NewSearcher allocates no
// worker: on a memo that was searched before it is a struct literal.
func TestNewSearcherReusesCompiledSpace(t *testing.T) {
	m := workloadMemo(t, 16)
	first := NewSearcher(m)
	if len(first.workers) != 0 {
		t.Fatalf("NewSearcher allocated %d workers", len(first.workers))
	}
	second := NewSearcher(m)
	if &first.tmpls[0] != &second.tmpls[0] || first.SI != second.SI || first.structSum != second.structSum {
		t.Fatal("two searchers over one memo compiled two search spaces")
	}
	if n := testing.AllocsPerRun(10, func() { benchSearcher = NewSearcher(m) }); n > 1 {
		t.Fatalf("NewSearcher on a compiled memo allocates %.0f objects, want the searcher alone", n)
	}
	other := NewSearcher(workloadMemo(t, 16))
	if &first.tmpls[0] == &other.tmpls[0] {
		t.Fatal("searchers over two memos share one search space")
	}
	if first.Fingerprint() != other.Fingerprint() {
		t.Fatal("two builds of one batch compile to different fingerprints")
	}
}

var benchSearcher *Searcher

// PublishCache hands the emptied workers to the cache, the next searcher
// takes them instead of allocating, and Invalidate lets them go.
func TestPublishReturnsWorkers(t *testing.T) {
	m := workloadMemo(t, 16)
	cache := NewSharedCache()
	rng := rand.New(rand.NewSource(7))

	s := NewSearcher(m)
	s.AttachSharedCache(cache)
	withProcs(t, 4)
	sets := randomSets(s, rng, 40)
	if _, ok := s.BestCostBatchCtx(context.Background(), sets); !ok {
		t.Fatal("batch aborted")
	}
	took := append([]*worker(nil), s.workers...)
	if len(took) != 4 || cache.FreeWorkers() != 0 {
		t.Fatalf("run holds %d workers, free list %d; want 4 and 0", len(took), cache.FreeWorkers())
	}
	s.PublishCache()
	keep := min(4, runtime.GOMAXPROCS(0))
	if len(s.workers) != 0 || cache.FreeWorkers() != keep {
		t.Fatalf("after publish: searcher holds %d workers, free list %d; want 0 and %d", len(s.workers), cache.FreeWorkers(), keep)
	}
	for _, w := range took {
		if w.s != nil || w.l1 != nil || w.l2 != nil {
			t.Fatal("a free worker still points at its searcher or a cache table")
		}
	}

	next := NewSearcher(m)
	next.AttachSharedCache(cache)
	w := next.worker(0)
	reused := false
	for _, old := range took {
		reused = reused || w == old
	}
	if !reused || cache.FreeWorkers() != keep-1 {
		t.Fatalf("next searcher reused a worker: %t, free list %d, want true and %d", reused, cache.FreeWorkers(), keep-1)
	}
	sameCosts(t, "reused worker", next, sets)
	if next.ComputedKey != 0 || next.SharedHits == 0 {
		t.Fatalf("reused worker computed %d keys with %d shared hits; the published run covers every set", next.ComputedKey, next.SharedHits)
	}

	// One rule for every entry point, before and after a publish: an
	// evaluation takes the searcher's worker 0, which stays, with what it
	// learned, until the next publish hands it back.
	next.PublishCache()
	free := cache.FreeWorkers()
	for _, eval := range []func(*Searcher){
		func(s *Searcher) { s.CostBreakdown(sets[0]) },
		func(s *Searcher) { s.BestCost(sets[0]) },
		func(s *Searcher) { s.BestPlan(sets[0]) },
	} {
		for _, sr := range []*Searcher{next, attached(m, cache)} { // after a publish, and as a first evaluation
			eval(sr)
			if len(sr.workers) != 1 || cache.FreeWorkers() != free-1 {
				t.Fatalf("an evaluation gave its worker back: searcher holds %d, free list %d → %d", len(sr.workers), free, cache.FreeWorkers())
			}
			sr.PublishCache()
			if len(sr.workers) != 0 || cache.FreeWorkers() != free {
				t.Fatalf("publish left the searcher %d workers and the free list %d, want 0 and %d", len(sr.workers), cache.FreeWorkers(), free)
			}
		}
	}
	if bd, want := next.CostBreakdown(sets[0]), NewSearcher(m).BestCost(sets[0]); bd.Total != want {
		t.Fatalf("breakdown after publish totals %v, want %v", bd.Total, want)
	}

	cache.Invalidate()
	if cache.FreeWorkers() != 0 {
		t.Fatalf("Invalidate left %d free workers", cache.FreeWorkers())
	}
}

func attached(m *memo.Memo, c *SharedCache) *Searcher {
	s := NewSearcher(m)
	s.AttachSharedCache(c)
	return s
}

// Without a cache the workers are all a searcher has: they stay.
func TestWorkersStayWithoutCache(t *testing.T) {
	s := buildSearcher(t, sharedPairQueries()...)
	s.BestCost(NodeSet{})
	w := s.workers[0]
	s.PublishCache()
	s.CostBreakdown(NodeSet{})
	if len(s.workers) != 1 || s.workers[0] != w {
		t.Fatal("a searcher without a SharedCache gave its worker away")
	}
}

// The free list is bounded in workers (GOMAXPROCS) and in cells
// (freeCellCap), keeps the largest, and hands out the tightest fit. Every
// expectation follows from GOMAXPROCS: of maxp+3 workers of 100 … 102+maxp
// cells the list keeps the maxp largest, 103 … 102+maxp.
func TestFreeListBounds(t *testing.T) {
	sized := func(cells int) *worker { return &worker{useMemo: make([]epVal, cells)} }
	c := NewSharedCache()
	maxp := runtime.GOMAXPROCS(0)
	var ws []*worker
	for i := 0; i < maxp+3; i++ {
		ws = append(ws, sized(100+i))
	}
	c.putWorkers(ws)
	if got := c.FreeWorkers(); got != maxp {
		t.Fatalf("free list holds %d workers, GOMAXPROCS is %d", got, maxp)
	}
	if w := c.takeWorker(100 + maxp + 3); w != nil {
		t.Fatalf("took a worker of %d cells for a DAG of %d", w.cellCap(), 100+maxp+3)
	}
	// The three smallest were dropped; the tightest fit is the smallest kept.
	tight := c.takeWorker(1)
	if tight == nil || tight.cellCap() != 103 {
		t.Fatalf("tightest fit for 1 cell: %v", tight)
	}
	c.putWorkers([]*worker{tight}) // the kept set again
	if w := c.takeWorker(102 + maxp); w == nil || w.cellCap() != 102+maxp {
		t.Fatalf("exact fit for the largest kept worker: %v", w)
	}
	if got := c.FreeWorkers(); got != maxp-1 {
		t.Fatalf("free list holds %d workers after one was taken from %d", got, maxp)
	}

	c = NewSharedCache()
	c.putWorkers([]*worker{sized(freeCellCap + 1)})
	if c.FreeWorkers() != 0 {
		t.Fatal("a worker larger than freeCellCap was kept")
	}
	c.putWorkers([]*worker{sized(freeCellCap/2 + 1), sized(freeCellCap / 2)})
	if c.FreeWorkers() != 1 || c.takeWorker(freeCellCap/2+1) == nil {
		t.Fatal("over freeCellCap the larger worker must be the one kept")
	}

	// A worker for the 256-query stress tier is under the bound and kept;
	// its sparse tables (2.36 M slots against a bound of 512 Ki) never were.
	s := NewSearcher(memo256())
	w := s.newWorker()
	c = NewSharedCache()
	c.putWorkers([]*worker{w})
	if c.FreeWorkers() != 1 || c.takeWorker(s.cells.len()) != w {
		t.Fatalf("a 256-query worker of %d cells (bound %d) was not kept", w.cellCap(), freeCellCap)
	}
}

// A worker outlives its searcher: it is resliced to DAGs of other sizes,
// meets other operator flags, and carries stamps from every run before.
// None of that may show — every cost equals a fresh worker's.
func TestPooledWorkerAcrossDAGs(t *testing.T) {
	withProcs(t, 1)
	big, small := workloadMemo(t, 32), workloadMemo(t, 8)
	cache := NewSharedCache()
	rng := rand.New(rand.NewSource(11))
	var pooled *worker
	for round, step := range []struct {
		m        *memo.Memo
		extended bool
	}{
		// Odd rounds hand the worker back without a publish: the run's L1
		// stays with its searcher, and the next round — the same DAG under
		// the other flag, twice — meets a worker with a live base.
		{big, false}, {small, true}, {small, false}, {big, true}, {big, false}, {small, false}, {big, true},
	} {
		s := NewSearcher(step.m)
		s.AttachSharedCache(cache)
		s.ExtendedOps = step.extended
		w := s.worker(0)
		if round == 0 {
			pooled = w
		} else if w != pooled {
			t.Fatalf("round %d: the pooled worker was not reused", round)
		}
		if len(w.useMemo) != s.cells.len() || len(w.compMemo) != len(w.useMemo) || len(w.groups) != step.m.NumGroups() {
			t.Fatalf("round %d: tables sized %d/%d/%d for %d cells of %d groups", round, len(w.useMemo), len(w.compMemo), len(w.groups), s.cells.len(), step.m.NumGroups())
		}
		sameCosts(t, "pooled worker", s, randomSets(s, rng, 12))
		if round%2 == 0 {
			s.PublishCache()
		} else {
			cache.putWorkers(s.workers) // back with a live base
		}
	}
}

// Stamp wrap on a pooled worker: it now lives as long as its session, so
// the wrap is reachable, and its arrays extend past the DAG it is bound to
// when the wrap comes. The hard reset must clear their whole capacity: the
// cells and group records beyond the small DAG carry stamps of the large
// one's first run (priced with the extended operators), and after the wrap
// the clock passes through those very values again.
func TestPooledWorkerEpochWrap(t *testing.T) {
	big, small := workloadMemo(t, 32), workloadMemo(t, 8)
	cache := NewSharedCache()
	rng := rand.New(rand.NewSource(13))

	first := NewSearcher(big)
	first.AttachSharedCache(cache)
	first.ExtendedOps = true
	w := first.worker(0)
	sets := randomSets(first, rng, 24)
	for _, set := range sets {
		first.BestCost(set)
	}
	cache.putWorkers(first.workers) // unpublished
	// Every evaluation took a stamp or two, so the second run's first
	// stamps are ones cells of this run carry.
	if w.clock < uint32(len(sets)) || w.clock > 2*uint32(len(sets)) {
		t.Fatalf("first run left clock %d, the test assumes %d–%d", w.clock, len(sets), 2*len(sets))
	}
	stale := 0
	for _, c := range w.useMemo[NewSearcher(small).cells.len():] {
		if c.ep != 0 && c.ep <= uint32(len(sets)) {
			stale++
		}
	}
	if stale == 0 {
		t.Fatal("no cell beyond the small DAG carries an early stamp: the wrap has nothing to clear")
	}

	w.clock = math.MaxUint32 - 2
	mid := NewSearcher(small)
	mid.AttachSharedCache(cache)
	if mid.worker(0) != w || cap(w.useMemo) <= len(w.useMemo) {
		t.Fatalf("the small DAG did not get the large worker resliced (len %d cap %d)", len(w.useMemo), cap(w.useMemo))
	}
	sameCosts(t, "small DAG across the wrap", mid, randomSets(mid, rng, 2))
	if w.clock == 0 || w.clock > 4 {
		t.Fatalf("after the wrap: clock %d; want a restart from 1", w.clock)
	}
	for i, c := range w.useMemo[len(w.useMemo):cap(w.useMemo)] {
		if c.ep != 0 {
			t.Fatalf("the wrap left stamp %d on cell %d past the bound DAG", c.ep, len(w.useMemo)+i)
		}
	}
	for i, g := range w.groups[len(w.groups):cap(w.groups)] {
		if g != (groupState{}) {
			t.Fatalf("the wrap left %+v on group %d past the bound DAG", g, len(w.groups)+i)
		}
	}
	mid.PublishCache()

	second := NewSearcher(big) // plain operators: the stale entries are wrong for it
	second.AttachSharedCache(cache)
	if second.worker(0) != w {
		t.Fatal("second run over the large DAG did not reuse the worker")
	}
	for i, j := 0, len(sets)-1; i < j; i, j = i+1, j-1 {
		sets[i], sets[j] = sets[j], sets[i]
	}
	sameCosts(t, "large DAG after the wrap", second, sets)
}

// TestHeldBytesPerNode measures what memo.BuildCache's bound is denominated
// in: live heap per operator node of a held memo with its compiled search
// space (1.56 kB here when this was written; the bound assumes under 3 kB).
func TestHeldBytesPerNode(t *testing.T) {
	cat := tpcd.Catalog(1)
	bc := memo.NewBuildCache()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	nodes := 0
	for k := 0; k < 8; k++ {
		spec := workload.DefaultSpec(32, 0.25)
		spec.Seed = int64(1000 + k)
		m, err := memo.Build(cat, cost.Default(), workload.MustGenerate(spec), memo.WithBuildCache(bc))
		if err != nil {
			t.Fatal(err)
		}
		NewSearcher(m)
		nodes += m.NumExprs()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perNode := float64(after.HeapAlloc-before.HeapAlloc) / float64(nodes)
	runtime.KeepAlive(bc)
	t.Logf("8 held 32-query memos: %d operator nodes, %.0f B of live heap per node", nodes, perNode)
	if perNode > 3000 {
		t.Fatalf("a held operator node costs %.0f B, memo.heldNodeCap is sized for under 3000", perNode)
	}
}
