package physical

import (
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"sync"
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

// TestL1ProbeWraparound stores keys homed at the last probe position of a
// full bucket, so collision resolution must wrap around to position 0, and
// verifies every key stays retrievable. A cell's first keys go into its
// small head, which has no probe run; keys homed away from both ends fill it
// first, so the wrapping keys reach the chain the head grows into.
func TestL1ProbeWraparound(t *testing.T) {
	s := buildSearcher(t, sharedPairQueries()...)
	w, _, c := useCell(t, s)
	taken := map[uint64]bool{}
	for i := 0; i < l1SmallCap; i++ {
		w.store(c, findMaskWithHome(t, 8+i, taken), float64(i), kindUse)
	}
	masks := make([]uint64, 4)
	for i := range masks {
		masks[i] = findMaskWithHome(t, l1BucketCap-1, taken)
		w.store(c, masks[i], float64(100+i), kindUse)
	}
	b := l1At(s, 2*c+kindUse).full.Load()
	if b == nil {
		t.Fatalf("%d stores left the cell without a chain", l1SmallCap+len(masks))
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

// TestL1SmallHeadGrows pins a cell's geometry: its first l1SmallCap keys go
// into a small head, and the store after them replaces the head with the
// chain's first full bucket, which holds the head's keys and its own, while
// the head is kept as it was. A SharedCache table sizes a slot by what it
// holds the same way: extend gives a slot a new head while its entries fit
// in one and a chain after, and never writes a published head or bucket.
func TestL1SmallHeadGrows(t *testing.T) {
	s := buildSearcher(t, sharedPairQueries()...)
	w, _, c := useCell(t, s)
	slot := l1At(s, 2*c+kindUse)
	for i := 0; i < l1SmallCap; i++ {
		w.store(c, l1TestMask(i), float64(i), kindUse)
		if slot.full.Load() != nil || slot.small.Load().count() != i+1 {
			t.Fatalf("after %d stores: chain %t, head of %d, want no chain and a head of %d", i+1, slot.full.Load() != nil, slot.small.Load().count(), i+1)
		}
	}
	head := slot.small.Load()
	w.store(c, l1TestMask(l1SmallCap), l1SmallCap, kindUse)
	b := slot.full.Load()
	if b == nil || b.next.Load() != nil || bits.OnesCount64(b.occ) != l1SmallCap+1 || slot.len() != l1SmallCap+1 {
		t.Fatalf("the store past a full head made no one-bucket chain of %d entries (slot holds %d)", l1SmallCap+1, slot.len())
	}
	if slot.small.Load() != head || head.count() != l1SmallCap {
		t.Fatal("replacing the head changed it")
	}
	for i := 0; i <= l1SmallCap; i++ {
		if v, ok := slot.find(l1TestMask(i)); !ok || v != float64(i) {
			t.Fatalf("mask %d after the head grew: got (%v, %v)", i, v, ok)
		}
	}

	tab := &nsTable{slots: make(l1Table, 1)}
	grow := func(from, to int) {
		t.Helper()
		var extra []l1Entry
		for i := from; i < to; i++ {
			extra = append(extra, l1Entry{mask: l1TestMask(i), val: float64(i)})
		}
		h, chain := tab.slots[0].small.Load(), tab.slots[0].full.Load()
		hCount, chainOcc := h.count(), uint64(0)
		if chain != nil {
			chainOcc = chain.occ
		}
		tab.extend(0, extra)
		if h.count() != hCount || chain != nil && chain.occ != chainOcc {
			t.Fatal("extend wrote a published head or bucket")
		}
		if got := tab.slots[0].len(); got != to {
			t.Fatalf("extended to %d keys, the slot holds %d", to, got)
		}
		for i := 0; i < to; i++ {
			if v, ok := tab.slots[0].find(l1TestMask(i)); !ok || v != float64(i) {
				t.Fatalf("mask %d of %d: got (%v, %v)", i, to, v, ok)
			}
		}
	}
	grow(0, 3)
	grow(3, l1SmallCap)
	if tab.slots[0].full.Load() != nil {
		t.Fatalf("%d entries made a chain; they fit in a head", l1SmallCap)
	}
	grow(l1SmallCap, l1SmallCap+1)
	grow(l1SmallCap+1, l1SmallCap+5)
	if b := tab.slots[0].full.Load(); b == nil || b.next.Load() != nil {
		t.Fatalf("%d entries are not one chain bucket", l1SmallCap+5)
	}
}

// TestL1HeadGrowthRace stores distinct masks into one slot from four
// goroutines at once, through the replacement of its full head, while two
// readers probe it, and holds the slot to every mask at its value and to as
// many entries as masks: no store dropped, none written twice. Run under
// -race; the cellcheck build also asserts that no claimed position was live
// and that every replacement kept the head whole.
func TestL1HeadGrowthRace(t *testing.T) {
	withProcs(t, 4)
	const writers, perWriter, rounds = 4, 5, 300
	for round := 0; round < rounds; round++ {
		var slot l1Slot
		var wg sync.WaitGroup
		done := make(chan struct{})
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					for k := 0; k < writers*perWriter; k++ {
						if v, ok := slot.find(l1TestMask(k)); ok && v != float64(k) {
							t.Errorf("mask %d read as %v while the slot grew", k, v)
							return
						}
					}
				}
			}()
		}
		var writersWG sync.WaitGroup
		for k := 0; k < writers; k++ {
			writersWG.Add(1)
			go func() {
				defer writersWG.Done()
				for j := 0; j < perWriter; j++ {
					key := j*writers + k
					slot.store(l1TestMask(key), float64(key))
				}
			}()
		}
		writersWG.Wait()
		close(done)
		wg.Wait()
		if got := slot.len(); got != writers*perWriter {
			t.Fatalf("round %d: %d distinct stores left %d entries", round, writers*perWriter, got)
		}
		for k := 0; k < writers*perWriter; k++ {
			if v, ok := slot.find(l1TestMask(k)); !ok || v != float64(k) {
				t.Fatalf("round %d: mask %d: got (%v, %v)", round, k, v, ok)
			}
		}
		if slot.full.Load() == nil {
			t.Fatalf("round %d: %d keys left no chain", round, writers*perWriter)
		}
	}
}

// TestL1ChainsPastFillBound pins what replaced eviction: a full bucket takes
// at most l1MaxFill entries, and a store that finds every bucket of its
// cell's chain full links a new one behind the last, so the L1 drops no key.
// The chain holds every key the cell's head did. No link passes the bound (a
// probe for an absent key stops early), every stored key is found and no
// other; the publish path takes the slot whole into an empty slot, and into
// an occupied one only the entries it lacks.
func TestL1ChainsPastFillBound(t *testing.T) {
	s := buildSearcher(t, sharedPairQueries()...)
	w, _, c := useCell(t, s)
	const n = 3*l1MaxFill + 5
	stored := map[uint64]float64{}
	for i := 0; i < n; i++ {
		m := l1TestMask(i)
		stored[m] = float64(i)
		w.store(c, m, float64(i), kindUse)
	}
	w.store(c, l1TestMask(n-1), n-1, kindUse) // a key its link already holds adds nothing
	slot := l1At(s, 2*c+kindUse)
	links := 0
	for b := slot.full.Load(); b != nil; b = b.next.Load() {
		links++
		if occ := bits.OnesCount64(b.occ); occ > l1MaxFill || occ != bits.OnesCount64(b.held) {
			t.Fatalf("link %d holds %d entries (%d claimed), want at most the fill bound %d and none in flight", links, occ, bits.OnesCount64(b.held), l1MaxFill)
		}
	}
	if want := (n + l1MaxFill - 1) / l1MaxFill; links != want || slot.len() != n {
		t.Fatalf("%d stores made %d links of %d entries, want %d links of %d", n, links, slot.len(), want, n)
	}
	checkSlot := func(where string, slot *l1Slot, want map[uint64]float64) {
		t.Helper()
		for m, v := range want {
			if got, ok := slot.find(m); !ok || got != v {
				t.Fatalf("%s: mask %#x: got (%v, %v), want (%v, true)", where, m, got, ok, v)
			}
		}
		if v, ok := slot.find(l1TestMask(1 << 21)); ok {
			t.Fatalf("%s: never-stored mask found (%v)", where, v)
		}
	}
	checkSlot("run L1", slot, stored)

	// Published: an empty slot adopts the head and the chain as they are.
	tab := &nsTable{slots: make(l1Table, 2)}
	if got := tab.absorb(kindUse, slot); got != n || tab.slots[kindUse].full.Load() != slot.full.Load() || tab.slots[kindUse].small.Load() != slot.small.Load() {
		t.Fatalf("adopting the slot added %d entries (chain kept: %t), want %d and the run's own chain", got, tab.slots[kindUse].full.Load() == slot.full.Load(), n)
	}
	// A second run's chain that shares two keys brings a link and a half of
	// new ones: only those are added, in links of the table's own.
	s2 := buildSearcher(t, sharedPairQueries()...)
	w2, _, _ := useCell(t, s2)
	fresh := 0
	for i := n - 2; i < n+l1MaxFill+l1MaxFill/2; i++ {
		m := l1TestMask(i)
		if _, ok := stored[m]; !ok {
			fresh++
		}
		stored[m] = float64(i)
		w2.store(c, m, float64(i), kindUse)
	}
	if got := tab.absorb(kindUse, l1At(s2, 2*c+kindUse)); got != fresh {
		t.Fatalf("absorbing %d new and 2 known keys added %d entries", fresh, got)
	}
	checkSlot("published chain", &tab.slots[kindUse], stored)
	if got := tab.slots[kindUse].len(); got != len(stored) {
		t.Fatalf("published chain holds %d entries for %d keys", got, len(stored))
	}
}

// TestL1BytesPerEntry bounds what a cold run's L1 allocates per entry it
// holds. A cold 32-query MarginalGreedy-shaped run — bc(∅), the U ∖ {e}
// batch of the decomposition, greedy rounds of S ∪ {x} — fills the L1 on one
// worker; its entries are then stored again, slot by slot, into an empty
// table, and the bytes that replay allocates are the buckets the geometry
// makes for that many keys a cell. Most cells hold a handful of keys, so one
// full bucket (1,152 B) for every cell that holds any is far past the bound.
func TestL1BytesPerEntry(t *testing.T) {
	const bound = 64.0 // B per entry
	withProcs(t, 1)
	s := NewSearcher(workloadMemo(t, 32))
	price := func(sets []NodeSet) []float64 {
		t.Helper()
		got, ok := s.BestCostBatchCtx(nil, sets)
		if !ok {
			t.Fatalf("batch aborted: %v", s.TakeFault())
		}
		return got
	}
	sh := s.M.Shareable()
	set := s.NewNodeSet()
	best := price([]NodeSet{set})[0]
	var minus []NodeSet
	for i := range sh {
		minus = append(minus, s.NewNodeSet(append(append([]memo.GroupID(nil), sh[:i]...), sh[i+1:]...)...))
	}
	price(minus)
	for {
		var next []NodeSet
		for _, x := range sh {
			if !set.Has(x) {
				next = append(next, set.With(x))
			}
		}
		if len(next) == 0 {
			break
		}
		costs, pick := price(next), -1
		for i, c := range costs {
			if c < best {
				best, pick = c, i
			}
		}
		if pick < 0 {
			break
		}
		set = next[pick]
	}

	type kv struct {
		slot int
		e    l1Entry
	}
	var entries []kv
	slots, fullBuckets := 0, 0 // slots holding any key; the chain buckets they would need
	for i := range s.l1 {
		n := s.l1[i].len()
		if n == 0 {
			continue
		}
		slots++
		fullBuckets += (n + l1MaxFill - 1) / l1MaxFill
		s.l1[i].links(func(occ uint64, es []l1Entry) {
			for ; occ != 0; occ &= occ - 1 {
				entries = append(entries, kv{i, es[bits.TrailingZeros64(occ)]})
			}
		})
	}
	tab := make(l1Table, len(s.l1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, x := range entries {
		tab[x.slot].store(x.e.mask, x.e.val)
	}
	runtime.ReadMemStats(&after)
	got := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(entries))
	oneBucket := float64(fullBuckets*1152) / float64(len(entries))
	t.Logf("%d entries in %d slots: %.1f B an entry (bound %.0f); full buckets alone would take %.1f", len(entries), slots, got, bound, oneBucket)
	if oneBucket <= bound {
		t.Fatalf("full buckets alone take %.1f B an entry, within the bound %.0f: the run is not one the bound tells apart", oneBucket, bound)
	}
	if got > bound {
		t.Fatalf("the L1 allocates %.1f B an entry, want at most %.0f", got, bound)
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
	use := l1At(s, 2*c+kindUse).small.Load()
	if use == nil || use == l1At(s, 2*c+kindComp).small.Load() {
		t.Fatalf("after one store per kind: use head %p, compute head %p", use, l1At(s, 2*c+kindComp).small.Load())
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
	if l1At(s, 2*c+kindUse).small.Load() == use {
		t.Fatal("the store after resetL1 went into a head of the dropped table")
	}
	if v, ok := w.cached(c, 13, kindUse); !ok || v != 3.5 {
		t.Fatalf("post-reset store: got (%v, %v), want (3.5, true)", v, ok)
	}
	if v, ok := use.find(11); !ok || v != 1.5 {
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
							if tab[2*c+kindUse].empty() {
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

// l1At is slot i of the searcher's L1.
func l1At(s *Searcher, i int) *l1Slot { return &s.l1[i] }

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
// reuses nothing. The query roots' entry buckets overflow inside a batch, so
// chains are linked while other workers probe and store into them; the test
// checks that some are, and that a publish hands the table every entry of
// the L1. Then the four workers store straight into a few cells at once,
// hundreds of keys each, some keys stored by all four: after PublishCache
// every key any of them stored is in the namespace table, at its value.
func TestSharedL1Stress(t *testing.T) {
	m := workloadMemo(t, 16)
	ref := NewSearcher(m)
	ref.Incremental = false
	s := NewSearcher(m)
	cache := NewSharedCache()
	s.AttachSharedCache(cache)
	withProcs(t, 4)
	// published checks that the namespace table holds every entry of l1.
	published := func(where string, l1 []l1Entry, slots []int32) {
		t.Helper()
		tab := cache.spaces[s.Fingerprint()]
		if tab == nil {
			t.Fatalf("%s: nothing published under the searcher's namespace", where)
		}
		for j, e := range l1 {
			if v, ok := tab.slots[slots[j]].find(e.mask); !ok || v != e.val {
				t.Fatalf("%s: slot %d mask %#x: the table says (%v, %v), the L1 held %v", where, slots[j], e.mask, v, ok, e.val)
			}
		}
	}
	rng := rand.New(rand.NewSource(3))
	chained := 0
	for round := 0; round < 12; round++ {
		switch round % 4 {
		case 1:
			var held []l1Entry
			var slots []int32
			for i := range s.l1 {
				s.l1[i].links(func(occ uint64, entries []l1Entry) {
					for ; occ != 0; occ &= occ - 1 {
						held = append(held, entries[bits.TrailingZeros64(occ)])
						slots = append(slots, int32(i))
					}
				})
			}
			s.PublishCache()
			published(fmt.Sprintf("round %d", round), held, slots)
		case 3:
			cache.Invalidate()
		}
		sets := randomSets(s, rng, 96)
		s.batchMark = s.Stats // fan out whatever the last batch computed
		got, ok := s.BestCostBatchCtx(nil, sets)
		if !ok {
			t.Fatalf("round %d: batch aborted: %v", round, s.TakeFault())
		}
		for i := range s.l1 {
			if b := s.l1[i].full.Load(); b != nil && b.next.Load() != nil {
				chained++
			}
		}
		for i, set := range sets {
			if want := ref.BestCost(set); got[i] != want {
				t.Fatalf("round %d, set %d: batched %v, a searcher that reuses nothing %v", round, i, got[i], want)
			}
		}
	}
	if chained == 0 {
		t.Fatal("no bucket overflowed inside a fanned-out batch: chaining went unexercised")
	}

	// Straight stores, racing for the same chains: cells 0–3, compute keys.
	s.worker(3)
	const cells, perWorker, common = 4, 300, 40
	var wg sync.WaitGroup
	stored := make([][]l1Entry, 4)
	for k, w := range s.workers[:4] {
		w.undo() // between evaluations: no group carries an overlay stamp
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				key := 1<<30 + k*perWorker + j
				if j < common {
					key = 1<<30 - 1 - j // the same keys on every worker
				}
				e := l1Entry{mask: l1TestMask(key), val: float64(key)}
				for c := 0; c < cells; c++ {
					w.store(c, e.mask, e.val, kindComp)
				}
				stored[k] = append(stored[k], e)
			}
		}()
	}
	wg.Wait()
	s.PublishCache()
	for k := range stored {
		for c := 0; c < cells; c++ {
			slots := make([]int32, len(stored[k]))
			for j := range slots {
				slots[j] = int32(2*c + kindComp)
			}
			published(fmt.Sprintf("worker %d, cell %d", k, c), stored[k], slots)
		}
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

// BenchmarkL1Probe compares the L1's two bucket shapes against the retired
// map[uint64]float64 bucket layout on the L1's real access mix — a warm
// bucket probed at a hit-heavy ratio with periodic stores of keys it holds —
// with allocations reported: "flat" is a full bucket at its fill bound,
// "small" a full head (l1Small). Neither bucket path may allocate.
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
	b.Run("small", func(b *testing.B) {
		head := new(l1Small)
		for i, m := range masks[:l1SmallCap] {
			head.put(m, float64(i))
		}
		b.ReportAllocs()
		b.ResetTimer()
		var sink float64
		for i := 0; i < b.N; i++ {
			m := masks[i%l1SmallCap]
			if i%16 == 15 {
				head.put(m, float64(i))
				continue
			}
			if v, ok := head.find(m); ok {
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
