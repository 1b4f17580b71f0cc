package physical

import (
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/cost"
	"repro/internal/memo"
	"repro/internal/tpcd"
	"repro/internal/workload"
)

// l1TestMask derives the i-th distinct test mask. The multiplier is odd,
// so masks never repeat within any 2^64 window.
func l1TestMask(i int) uint64 {
	return uint64(i)*0x9e3779b97f4a7c15 + 0x1234_5678_9abc_def0
}

// findMaskWithHome brute-forces a mask whose probe home is the given
// bucket position, distinct from every mask in taken.
func findMaskWithHome(t *testing.T, home int, taken map[uint64]bool) uint64 {
	t.Helper()
	for i := 0; i < 1<<20; i++ {
		m := l1TestMask(i)
		if l1Home(m) == home && !taken[m] {
			taken[m] = true
			return m
		}
	}
	t.Fatalf("no unseen mask homed at %d in 2^20 candidates", home)
	return 0
}

// TestL1AllOnesMaskRoundTrips pins the retired-sentinel bug: an earlier
// layout marked empty cells with ^uint64(0), so a real all-ones mask hash
// queried before any store read the zeroed value array as a hit. With
// explicit occupancy a fresh table must miss, and the stored value must
// round-trip exactly — for both cost kinds.
func TestL1AllOnesMaskRoundTrips(t *testing.T) {
	s := buildSearcher(t, sharedPairQueries()...)
	w, _, c := useCell(t, s)
	const mask = ^uint64(0)
	for _, kind := range []int{kindUse, kindComp} {
		if v, ok := w.cached(c, mask, kind); ok {
			t.Fatalf("kind %d: all-ones mask hit an empty L1 with value %v (sentinel collision)", kind, v)
		}
		want := 42.5 + float64(kind)
		w.store(c, mask, want, kind)
		if v, ok := w.cached(c, mask, kind); !ok || v != want {
			t.Fatalf("kind %d: all-ones mask after store: got (%v, %v), want (%v, true)", kind, v, ok, want)
		}
		// A later store of another mask in the same bucket must not
		// displace it.
		w.store(c, 7, 9.25, kind)
		if v, ok := w.cached(c, mask, kind); !ok || v != want {
			t.Fatalf("kind %d: all-ones mask after a second store: got (%v, %v), want (%v, true)", kind, v, ok, want)
		}
	}
}

// TestL1KindsDoNotAlias pins the fold of the use/compute twin tables into
// one: the kind must reach both the L1 index and the cacheKey. A value
// stored as a use cost must miss as a compute cost and vice versa, in the
// L1 and — after PublishCache — in the SharedCache a fresh searcher reads.
func TestL1KindsDoNotAlias(t *testing.T) {
	s := buildSearcher(t, sharedPairQueries()...)
	cache := NewSharedCache()
	s.AttachSharedCache(cache)
	w, _, c := useCell(t, s)

	const both, useOnly, compOnly = uint64(31), uint64(32), uint64(33)
	w.store(c, both, 1.5, kindUse)
	if v, ok := w.cached(c, both, kindComp); ok {
		t.Fatalf("use cost read back as a compute cost (%v): kind missing from the L1 index", v)
	}
	w.store(c, both, 2.5, kindComp)
	w.store(c, useOnly, 3.5, kindUse)
	w.store(c, compOnly, 4.5, kindComp)

	type probe struct {
		mask uint64
		kind int
		want float64
		hit  bool
	}
	probes := []probe{
		{both, kindUse, 1.5, true},
		{both, kindComp, 2.5, true},
		{useOnly, kindUse, 3.5, true},
		{useOnly, kindComp, 0, false},
		{compOnly, kindComp, 4.5, true},
		{compOnly, kindUse, 0, false},
	}
	check := func(where string, w *worker) {
		t.Helper()
		for _, p := range probes {
			if v, ok := w.cached(c, p.mask, p.kind); ok != p.hit || v != p.want {
				t.Fatalf("%s: mask %d kind %d: got (%v, %v), want (%v, %v)", where, p.mask, p.kind, v, ok, p.want, p.hit)
			}
		}
	}
	check("L1", w)

	s.PublishCache()
	s2 := buildSearcher(t, sharedPairQueries()...)
	s2.AttachSharedCache(cache)
	w2, _, _ := useCell(t, s2)
	check("L2", w2)
	w2.flushStats()
	if s2.SharedHits != 4 || s2.CacheHits != 0 {
		t.Fatalf("fresh searcher: %d shared / %d private hits, want 4 / 0", s2.SharedHits, s2.CacheHits)
	}
}

// TestL1ProbeWraparound stores keys homed at the last probe position, so
// collision resolution must wrap around to position 0, and verifies every
// key stays retrievable.
func TestL1ProbeWraparound(t *testing.T) {
	s := buildSearcher(t, sharedPairQueries()...)
	w, _, c := useCell(t, s)
	taken := map[uint64]bool{}
	masks := make([]uint64, 4)
	for i := range masks {
		masks[i] = findMaskWithHome(t, l1BucketCap-1, taken)
		w.store(c, masks[i], float64(100+i), kindUse)
	}
	b := l1At(s, 2*c+kindUse)
	if b == nil {
		t.Fatal("no bucket allocated")
	}
	for i, m := range masks {
		if v, ok := b.lookup(m); !ok || v != float64(100+i) {
			t.Fatalf("wrapped key %d: got (%v, %v), want (%v, true)", i, v, ok, float64(100+i))
		}
	}
	// The first key sits at its home, the rest wrapped past the end.
	if b.occ&(1<<uint(l1BucketCap-1)) == 0 {
		t.Fatal("home position of the colliding keys is unoccupied")
	}
	for i := 0; i < len(masks)-1; i++ {
		if b.occ&(1<<uint(i)) == 0 {
			t.Fatalf("wrapped position %d is unoccupied", i)
		}
	}
}

// TestL1OverflowFallsBackToShared drives one (group, order) bucket past
// its fill bound, so a store must evict the occupant of its home
// position, and verifies the evicted key is then served from the
// SharedCache L2 — the prescribed overflow path — while the newly stored
// key stays in the L1.
func TestL1OverflowFallsBackToShared(t *testing.T) {
	s := buildSearcher(t, sharedPairQueries()...)
	cache := NewSharedCache()
	s.AttachSharedCache(cache)
	w, g, c := useCell(t, s)

	taken := map[uint64]bool{}
	for i := 0; i < l1MaxFill; i++ {
		m := l1TestMask(i)
		taken[m] = true
		w.store(c, m, float64(i), kindUse)
	}
	b := l1At(s, 2*c+kindUse)
	if got := bits.OnesCount64(b.occ); got != l1MaxFill {
		t.Fatalf("bucket fill %d after %d distinct stores, want the fill bound", got, l1MaxFill)
	}

	// One more store must evict the current occupant of its home position.
	extra := findMaskWithHome(t, 0, taken)
	home := l1Home(extra)
	if b.occ&(1<<uint(home)) == 0 {
		// An empty home is claimed instead of evicting; force the probe to
		// land on an occupied home so the eviction path is exercised.
		for p := 0; p < l1BucketCap; p++ {
			if b.occ&(1<<uint(p)) != 0 {
				extra = findMaskWithHome(t, p, taken)
				home = p
				break
			}
		}
	}
	victim := b.entries[home].mask
	var victimVal float64
	var ok bool
	if victimVal, ok = b.lookup(victim); !ok {
		t.Fatal("home position occupant not retrievable before eviction")
	}
	w.store(c, extra, 999.5, kindUse)
	if v, ok := b.lookup(extra); !ok || v != 999.5 {
		t.Fatalf("overflow store lost the new key: got (%v, %v)", v, ok)
	}
	if _, ok := b.lookup(victim); ok {
		t.Fatal("evicted key still present in the L1 bucket")
	}

	// The evicted key falls back to the L2: seed it there (as an earlier
	// PublishCache would have) and the cache read must hit, counted as a
	// shared hit — every time, since a shared hit is not copied into the L1.
	seedCosts(cache, s.Fingerprint(), s.cells, []sharedKV{{k: cacheKey{g: g, ord: 0, compute: false, mask: victim}, v: victimVal}})
	w = s.worker(0) // the next entry point sees the table
	w.stats.SharedHits = 0
	for n := 1; n <= 2; n++ {
		if v, ok := w.cached(c, victim, kindUse); !ok || v != victimVal {
			t.Fatalf("evicted key via L2 fallback: got (%v, %v), want (%v, true)", v, ok, victimVal)
		}
		if w.stats.SharedHits != n {
			t.Fatalf("L2 fallback counted %d shared hits after %d reads", w.stats.SharedHits, n)
		}
	}
}

// TestL1OccupancyPastFillBound pins what the fill bound does and does not
// bound. Past it a store goes to its home position, and when that home is
// empty it is claimed, so occupancy creeps past l1MaxFill up to the full
// capacity. Lookups must stay exact there (the probe-run length comes from
// the occupancy word: 64 when no position is free), and the publish path,
// which reasons about the occupancy count, must take such a bucket — and
// extend its chain — without losing an entry.
func TestL1OccupancyPastFillBound(t *testing.T) {
	b := new(l1Bucket)
	stored := map[uint64]float64{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000 && b.occ != ^uint64(0); i++ {
		m := l1TestMask(rng.Intn(1 << 20))
		stored[m] = float64(i)
		b.store(m, float64(i))
	}
	if got := bits.OnesCount64(b.occ); got != l1BucketCap {
		t.Fatalf("occupancy %d after random stores, want it to creep to %d", got, l1BucketCap)
	}
	resident := map[uint64]float64{}
	for j := range b.entries {
		resident[b.entries[j].mask] = b.entries[j].val
	}
	if len(resident) != l1BucketCap {
		t.Fatalf("full bucket holds %d distinct masks, want %d", len(resident), l1BucketCap)
	}
	checkResident := func(where string, find func(uint64) (float64, bool)) {
		t.Helper()
		for m, v := range stored {
			got, ok := find(m)
			if want, in := resident[m]; in {
				if !ok || got != want || want != v {
					t.Fatalf("%s: resident mask %#x: got (%v, %v), want (%v, true)", where, m, got, ok, want)
				}
			} else if ok {
				t.Fatalf("%s: evicted mask %#x still found (%v)", where, m, got)
			}
		}
		if v, ok := find(l1TestMask(1 << 21)); ok {
			t.Fatalf("%s: never-stored mask found (%v)", where, v)
		}
	}
	checkResident("full bucket", b.lookup)

	// Published: an empty slot adopts the full bucket as is.
	tab := &nsTable{slots: make(l1Table, 2)}
	if n := tab.absorb(kindUse, b); n != l1BucketCap {
		t.Fatalf("adopting the full bucket added %d entries, want %d", n, l1BucketCap)
	}
	// A second bucket sharing two of its keys brings ten new ones: they
	// cannot fit under the head's bound, so the chain grows by a link.
	more := new(l1Bucket)
	fresh := map[uint64]float64{}
	for i := 0; i < 10; i++ {
		m := l1TestMask(1<<22 + i)
		fresh[m] = float64(-i)
		more.store(m, float64(-i))
	}
	dup := 0
	for m, v := range resident {
		if dup < 2 && more.put(m, v) {
			dup++
		}
	}
	if n := tab.absorb(kindUse, more); n != len(fresh) {
		t.Fatalf("absorbing %d new and %d known keys added %d entries", len(fresh), dup, n)
	}
	// A second full bucket, all new: more than one link's worth.
	full := new(l1Bucket)
	for i := 0; full.occ != ^uint64(0); i++ {
		full.store(l1TestMask(1<<23+i), float64(i))
	}
	for j := range full.entries {
		fresh[full.entries[j].mask] = full.entries[j].val
	}
	inFull := bits.OnesCount64(full.occ)
	if n := tab.absorb(kindUse, full); n != inFull {
		t.Fatalf("absorbing a full bucket of new keys added %d entries, want %d", n, inFull)
	}
	head := tab.slots[kindUse].Load()
	checkResident("published chain", head.find)
	for m, v := range fresh {
		if got, ok := head.find(m); !ok || got != v {
			t.Fatalf("published chain lost absorbed mask %#x: got (%v, %v), want (%v, true)", m, got, ok, v)
		}
	}
	links := 0
	for l := head; l != nil; l = l.next {
		links++
	}
	if links < 3 {
		t.Fatalf("chain has %d links after absorbing 10 + %d entries over a full bucket", links, inFull)
	}
}

// TestResetL1DropsRunL1 pins the L1's epoch move: resetL1 (what an
// Invalidate of the attached cache comes down to) lets go of the whole table
// instead of clearing buckets in place — a bucket is never written again
// once a reset has passed it by — and the next evaluation starts an empty
// table.
func TestResetL1DropsRunL1(t *testing.T) {
	s := buildSearcher(t, sharedPairQueries()...)
	w, _, c := useCell(t, s)
	w.store(c, 11, 1.5, kindUse)
	w.store(c, 12, 2.5, kindComp)
	use := l1At(s, 2*c+kindUse)
	if use == nil || use == l1At(s, 2*c+kindComp) {
		t.Fatalf("after one store per kind: use bucket %p, compute bucket %p", use, l1At(s, 2*c+kindComp))
	}

	s.resetL1()
	if s.l1 != nil {
		t.Fatal("resetL1 kept the run's L1")
	}
	w = s.worker(0)
	if _, ok := w.cached(c, 11, kindUse); ok {
		t.Fatal("use entry survived resetL1")
	}
	if _, ok := w.cached(c, 12, kindComp); ok {
		t.Fatal("comp entry survived resetL1")
	}

	w.store(c, 13, 3.5, kindUse)
	if l1At(s, 2*c+kindUse) == use {
		t.Fatal("the store after resetL1 went into a bucket of the dropped table")
	}
	if v, ok := w.cached(c, 13, kindUse); !ok || v != 3.5 {
		t.Fatalf("post-reset store: got (%v, %v), want (3.5, true)", v, ok)
	}
	if v, ok := use.lookup(11); !ok || v != 1.5 {
		t.Fatalf("the dropped bucket changed after the reset: got (%v, %v)", v, ok)
	}
}

// TestUseKeysOnlyInsideSet pins the rule that keeps one key per cost outside
// the set: a group's use cost there is its compute cost, which the compute
// key answers, so a use-cost key exists only for a group in the set (cacheKey).
// A cold MarginalGreedy-shaped run — bc(∅), the U ∖ {e} batch of the
// decomposition, greedy rounds of S ∪ {x} — at one worker and at four leaves
// no use-cost bucket on a cell of a group with no shareable slot, neither in
// the run's L1 nor in the table PublishCache hands it to; every total is the
// bit a searcher that reuses nothing produces, and the final plan validates.
func TestUseKeysOnlyInsideSet(t *testing.T) {
	for _, q := range []int{16, 32} {
		m := workloadMemo(t, q)
		ref := NewSearcher(m)
		ref.Incremental = false
		for _, procs := range []int{1, 4} {
			t.Run(fmt.Sprintf("%dq/p%d", q, procs), func(t *testing.T) {
				withProcs(t, procs)
				s := NewSearcher(m)
				cache := NewSharedCache()
				s.AttachSharedCache(cache)
				price := func(sets []NodeSet) []float64 {
					t.Helper()
					got, ok := s.BestCostBatchCtx(nil, sets)
					if !ok {
						t.Fatalf("batch aborted: %v", s.TakeFault())
					}
					for i, set := range sets {
						if want := ref.BestCost(set); got[i] != want {
							t.Fatalf("set %d of %d: bc = %v, a searcher that reuses nothing says %v", i, len(sets), got[i], want)
						}
					}
					return got
				}
				sh := m.Shareable()
				price([]NodeSet{{}})
				var minus []NodeSet
				for i := range sh {
					minus = append(minus, s.NewNodeSet(append(append([]memo.GroupID(nil), sh[:i]...), sh[i+1:]...)...))
				}
				price(minus)
				if procs > 1 && len(s.workers) < 2 {
					t.Fatalf("the cold U ∖ {e} batch ran on %d worker(s); the test wants it fanned out", len(s.workers))
				}
				set := s.NewNodeSet()
				for round := 0; round < 3; round++ {
					var next []NodeSet
					for _, x := range sh {
						if !set.Has(x) {
							next = append(next, set.With(x))
						}
					}
					costs := price(next)
					best := 0
					for i, c := range costs {
						if c < costs[best] {
							best = i
						}
					}
					set = next[best]
				}
				plan := s.BestPlan(set)
				if err := s.ValidatePlan(plan, set); err != nil {
					t.Fatalf("the plan of the chosen set does not validate: %v", err)
				}
				if want := ref.BestPlan(set); plan.Total != want.Total {
					t.Fatalf("plan total %v, a searcher that reuses nothing says %v", plan.Total, want.Total)
				}
				useBuckets := func(where string, tab l1Table) {
					t.Helper()
					live := 0
					for g, ok := range s.cells.useKeys {
						for c := s.cells.start[g]; c < s.cells.start[g+1]; c++ {
							if tab[2*c+kindUse].Load() == nil {
								continue
							}
							if !ok {
								t.Fatalf("%s: group %d has no shareable slot, yet cell %d holds a use-cost bucket", where, g, c)
							}
							live++
						}
					}
					if live == 0 {
						t.Fatalf("%s: no use-cost bucket at all; the run materialized nothing", where)
					}
				}
				s.settle()
				useBuckets("L1", s.l1)
				s.PublishCache()
				useBuckets("published table", cache.spaces[s.Fingerprint()].slots)
			})
		}
	}
}

// useCell puts the first shareable group in worker 0's set and returns the
// worker, the group and its any-order cell: a cell where a use-cost key
// exists (cacheKey), so the tests above may probe and store both kinds.
func useCell(t *testing.T, s *Searcher) (*worker, memo.GroupID, int) {
	t.Helper()
	sh := s.M.Shareable()
	if len(sh) == 0 {
		t.Fatal("the batch has no shareable group")
	}
	w := s.worker(0)
	s.SI.Set(w.bits, sh[0])
	return w, sh[0], s.cells.anyCell(sh[0])
}

// l1At is the bucket at slot i of the searcher's L1, nil when there is none.
func l1At(s *Searcher, i int) *l1Bucket {
	if s.l1 == nil {
		return nil
	}
	return s.l1[i].Load()
}

// TestBestCostBatchCtxL1Stress hammers the flat L1 through the real
// batched oracle: hundreds of random candidate sets, evaluated on a
// 4-worker pool under the race detector, must price bit-identically to
// sequential evaluation on a fresh searcher.
func TestBestCostBatchCtxL1Stress(t *testing.T) {
	sPar := buildSearcher(t, sharedPairQueries()...)
	sSeq := buildSearcher(t, sharedPairQueries()...)
	sh := sPar.M.Shareable()
	if len(sh) < 2 {
		t.Fatalf("need ≥ 2 shareable nodes, have %d", len(sh))
	}
	rng := rand.New(rand.NewSource(7))
	mats := make([]NodeSet, 300)
	seqMats := make([]NodeSet, len(mats))
	for i := range mats {
		ids := make([]memo.GroupID, 0, len(sh))
		for _, id := range sh {
			if rng.Intn(2) == 0 {
				ids = append(ids, id)
			}
		}
		mats[i] = sPar.NewNodeSet(ids...)
		seqMats[i] = sSeq.NewNodeSet(ids...)
	}
	withProcs(t, 4)
	got, ok := sPar.BestCostBatchCtx(nil, mats)
	if !ok {
		t.Fatal("stress batch aborted")
	}
	for i := range mats {
		if want := sSeq.BestCost(seqMats[i]); got[i] != want {
			t.Fatalf("set %d: batched %v != sequential %v", i, got[i], want)
		}
	}
}

// TestSharedL1Stress runs many fanned-out batches on one searcher at
// GOMAXPROCS 4, so four workers store into and read one L1 at once — cold,
// after a publish into the attached SharedCache, and across an Invalidate
// between batches — and holds every cost bit for bit to a searcher that
// reuses nothing. Buckets of the upper groups reach the fill bound, where a
// fanned-out store is deferred to the end of the batch (settle); the test
// checks that some are.
func TestSharedL1Stress(t *testing.T) {
	m := workloadMemo(t, 16)
	ref := NewSearcher(m)
	ref.Incremental = false
	s := NewSearcher(m)
	cache := NewSharedCache()
	s.AttachSharedCache(cache)
	withProcs(t, 4)
	rng := rand.New(rand.NewSource(3))
	deferred := 0
	for round := 0; round < 12; round++ {
		switch round % 4 {
		case 1:
			s.PublishCache()
		case 3:
			cache.Invalidate()
		}
		sets := randomSets(s, rng, 96)
		s.batchMark = s.Stats // fan out whatever the last batch computed
		got, ok := s.BestCostBatchCtx(nil, sets)
		if !ok {
			t.Fatalf("round %d: batch aborted: %v", round, s.TakeFault())
		}
		for _, w := range s.workers {
			deferred += len(w.spill)
		}
		for i, set := range sets {
			if want := ref.BestCost(set); got[i] != want {
				t.Fatalf("round %d, set %d: batched %v, a searcher that reuses nothing %v", round, i, got[i], want)
			}
		}
	}
	if deferred == 0 {
		t.Fatal("no store met a full bucket: deferring went unexercised")
	}
}

// TestPublishCacheAdoptsBuckets pins what a cold publish costs after a
// fanned-out run: the namespace adopts the run's one L1 — slot array and
// buckets — so it allocates a small constant (the table record and its map
// entry), not a copy of every bucket a second worker also filled.
func TestPublishCacheAdoptsBuckets(t *testing.T) {
	m := workloadMemo(t, 32)
	withProcs(t, 4)
	const runs = 4
	var ready []*Searcher
	for i := 0; i <= runs; i++ { // AllocsPerRun calls f once more, to warm up
		s := NewSearcher(m)
		s.AttachSharedCache(NewSharedCache())
		if _, ok := s.BestCostBatchCtx(nil, randomSets(s, rand.New(rand.NewSource(int64(i))), 64)); !ok {
			t.Fatal("batch aborted")
		}
		if len(s.workers) < 2 || s.ComputedKey == 0 {
			t.Fatalf("the cold batch ran on %d workers, computing %d keys; the test wants it fanned out", len(s.workers), s.ComputedKey)
		}
		ready = append(ready, s)
	}
	allocs := testing.AllocsPerRun(runs, func() {
		ready[0].PublishCache()
		ready = ready[1:]
	})
	if allocs > 8 {
		t.Fatalf("a cold PublishCache made %.0f allocations, want a small constant: adopt the L1, copy nothing", allocs)
	}
}

// BenchmarkL1Probe compares the flat open-addressed bucket against the
// retired map[uint64]float64 bucket layout on the L1's real access mix —
// a warm bucket probed at a hit-heavy ratio with periodic fresh stores —
// with allocations reported. The flat path must be allocation-free.
func BenchmarkL1Probe(b *testing.B) {
	masks := make([]uint64, l1MaxFill)
	for i := range masks {
		masks[i] = l1TestMask(i)
	}
	b.Run("flat", func(b *testing.B) {
		bucket := new(l1Bucket)
		for i, m := range masks {
			bucket.put(m, float64(i))
		}
		b.ReportAllocs()
		b.ResetTimer()
		var sink float64
		for i := 0; i < b.N; i++ {
			m := masks[i%len(masks)]
			if i%16 == 15 {
				bucket.put(m, float64(i))
				continue
			}
			if v, ok := bucket.lookup(m); ok {
				sink += v
			}
		}
		benchSink = sink
	})
	b.Run("map", func(b *testing.B) {
		bucket := make(map[uint64]float64, 4) // the old lazy bucket's size hint
		for i, m := range masks {
			bucket[m] = float64(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		var sink float64
		for i := 0; i < b.N; i++ {
			m := masks[i%len(masks)]
			if i%16 == 15 {
				bucket[m] = float64(i)
				continue
			}
			if v, ok := bucket[m]; ok {
				sink += v
			}
		}
		benchSink = sink
	})
}

var benchSink float64

// TestNewWorkerBytesPerCell guards the per-run table set-up every
// Optimize pays once per worker: the cell-sized arrays are the two memo
// cells (2 × 16 B), 32 B per cell — per (group, order) pair an evaluation can
// ask for, not per pair there is; the L1 is the run's, not the worker's. The
// allowance covers the per-group records (24 B) and allocator size-class
// rounding; a third cell-sized array does not fit in it, and one sized by
// groups × orders (here 15 × the cells) is far outside. One goroutine, one
// newWorker: the reading does not depend on GOMAXPROCS or the worker pool
// size.
func TestNewWorkerBytesPerCell(t *testing.T) {
	m, err := memo.Build(tpcd.Catalog(1), cost.Default(), workload.MustGenerate(workload.DefaultSpec(32, 0.25)))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	s := NewSearcher(m)
	groups := m.NumGroups()
	cells := s.cells.len()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w := s.newWorker()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(w)
	got := after.TotalAlloc - before.TotalAlloc
	limit := uint64(32*cells + 32*groups + 16<<10)
	t.Logf("%d cells of %d groups × %d orders: newWorker allocated %d B (%.1f B/cell), limit %d", cells, groups, s.numOrds, got, float64(got)/float64(cells), limit)
	if got > limit {
		t.Fatalf("newWorker allocated %d B for %d cells, want ≤ %d (32 B/cell plus allowance)", got, cells, limit)
	}
}
