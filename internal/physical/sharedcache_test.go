package physical

import (
	"context"
	"math/bits"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/memo"
	"repro/internal/tpcd"
	"repro/internal/workload"
)

// TestSharedCacheWarmStartAcrossSearchers: two searchers compiled from
// equal memos share one cache; after the first publishes, the second
// prices the same sets bit-identically while hitting the shared tier.
func TestSharedCacheWarmStartAcrossSearchers(t *testing.T) {
	s1 := buildSearcher(t, sharedPairQueries()...)
	s2 := buildSearcher(t, sharedPairQueries()...)
	if s1.structHash() != s2.structHash() {
		t.Fatal("equal batches compiled to different struct hashes")
	}
	cache := NewSharedCache()
	s1.AttachSharedCache(cache)
	s2.AttachSharedCache(cache)

	sh := s1.M.Shareable()
	var want []float64
	for _, id := range sh {
		want = append(want, s1.BestCost(s1.NewNodeSet(id)))
	}
	s1.PublishCache()
	if cache.Len() == 0 {
		t.Fatal("publish left the shared cache empty")
	}

	for i, id := range sh {
		if got := s2.BestCost(s2.NewNodeSet(id)); got != want[i] {
			t.Errorf("warm cost %d: %v != cold %v", i, got, want[i])
		}
	}
	if s2.SharedHits == 0 {
		t.Error("warm searcher never hit the shared cache")
	}
}

// TestSharedCacheInvalidate: Invalidate makes every entry unobservable and
// forces relearning, without changing any cost.
func TestSharedCacheInvalidate(t *testing.T) {
	s := buildSearcher(t, sharedPairQueries()...)
	cache := NewSharedCache()
	s.AttachSharedCache(cache)
	set := s.NewNodeSet(s.M.Shareable()[0])
	want := s.BestCost(set)
	s.PublishCache()
	if cache.Len() == 0 {
		t.Fatal("publish stored nothing")
	}
	cache.Invalidate()
	if cache.Len() != 0 {
		t.Errorf("invalidated cache still reports %d live entries", cache.Len())
	}
	if got := s.BestCost(set); got != want {
		t.Errorf("cost after invalidation %v != %v", got, want)
	}
}

// TestSharedCacheNamespaceSeparatesFlags: publishing under one flag
// setting must not leak into another — the extended-operator cost of a
// fresh searcher and of a second searcher over the same memo and cache,
// which takes the first one's published learning and pooled worker, must
// agree exactly.
func TestSharedCacheNamespaceSeparatesFlags(t *testing.T) {
	s := buildSearcher(t, sharedPairQueries()...)
	cache := NewSharedCache()
	s.AttachSharedCache(cache)
	set := s.NewNodeSet(s.M.Shareable()[0])
	s.BestCost(set)
	s.PublishCache()

	ext := NewSearcher(s.M)
	ext.AttachSharedCache(cache)
	ext.ExtendedOps = true
	if ext.Fingerprint() == s.Fingerprint() {
		t.Fatal("the extended operator set shares the paper set's namespace")
	}
	got := ext.BestCost(set)
	if ext.SharedHits != 0 {
		t.Errorf("the extended searcher read %d costs the paper set published", ext.SharedHits)
	}

	fresh := buildSearcher(t, sharedPairQueries()...)
	fresh.ExtendedOps = true
	if want := fresh.BestCost(set); got != want {
		t.Errorf("extended cost with shared cache %v != fresh %v", got, want)
	}
}

// TestSharedCacheConcurrentSearchers: many searchers over the same memo
// publishing and reading one cache concurrently stay race-free (run under
// -race) and bit-identical.
func TestSharedCacheConcurrentSearchers(t *testing.T) {
	ref := buildSearcher(t, sharedPairQueries()...)
	sh := ref.M.Shareable()
	var want []float64
	for _, id := range sh {
		want = append(want, ref.BestCost(ref.NewNodeSet(id)))
	}
	cache := NewSharedCache()
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for k := 0; k < 4; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := buildSearcher(t, sharedPairQueries()...)
			s.AttachSharedCache(cache)
			for i, id := range sh {
				if got := s.BestCost(s.NewNodeSet(id)); got != want[i] {
					errs <- "cost diverged under concurrency"
					return
				}
			}
			s.PublishCache()
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// seedCosts stores cost entries under a namespace the way Import does:
// with no index they are held until a searcher's geometry is known,
// otherwise the namespace first gets a table of that geometry.
func seedCosts(c *SharedCache, ns uint64, ix cellIndex, kvs []sharedKV) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.space(ns)
	c.touch(t)
	if ix.len() > 0 {
		c.shaped(t, ix)
	}
	c.importCosts(t, append([]sharedKV(nil), kvs...))
	c.evict(t)
}

// gridIndex is an index in which each of the groups is asked for every
// order below ords — cell g*ords+ord, the numbering sparse tables had — and
// has a shareable slot, so both kinds of key exist for every cell.
func gridIndex(groups, ords int) cellIndex {
	ix := cellIndex{start: make([]int32, groups+1), ord: make([]ordID, groups*ords), useKeys: make([]bool, groups)}
	for i := range ix.ord {
		ix.ord[i] = ordID(i % ords)
	}
	for g := range ix.useKeys {
		ix.useKeys[g] = true
	}
	for g := range ix.start {
		ix.start[g] = int32(g * ords)
	}
	return ix
}

// fakeRun is an L1 that holds perSlot distinct masks in each of the first
// slots use-cost cells of a one-group table of the given cell count: a run's
// learning without the run. Masks are l1TestMask(base + slot*perSlot + j).
func fakeRun(cells, slots, perSlot, base int) l1Table {
	l1 := make(l1Table, 2*cells)
	for sl := 0; sl < slots; sl++ {
		for j := 0; j < perSlot; j++ {
			k := base + sl*perSlot + j
			l1[2*sl+kindUse].store(l1TestMask(k), float64(k))
		}
	}
	return l1
}

// hasRun reports how many of fakeRun's keys the cache serves under ns.
func hasRun(c *SharedCache, ns uint64, ix cellIndex, slots, perSlot, base int) int {
	tab, _ := c.resolve(ns, ix)
	if tab == nil {
		return 0
	}
	n := 0
	for sl := 0; sl < slots; sl++ {
		for j := 0; j < perSlot; j++ {
			k := base + sl*perSlot + j
			if v, ok := tab[2*sl+kindUse].find(l1TestMask(k)); ok && v == float64(k) {
				n++
			}
		}
	}
	return n
}

// TestSharedCacheCapDropsOtherNamespacesOldestFirst: the cap is enforced
// by dropping whole namespaces, least recently published first and never
// the one being published — so a publish larger than the cap survives
// whole.
func TestSharedCacheCapDropsOtherNamespacesOldestFirst(t *testing.T) {
	const cells, perSlot = 16000, 40
	ix := gridIndex(1, cells)
	c := NewSharedCache()
	small := 1000 / perSlot // slots of a 1,000-entry namespace
	for ns := uint64(1); ns <= 3; ns++ {
		c.publish(ns, ix, fakeRun(cells, small, perSlot, 0))
	}
	// Republishing namespace 1 (nothing new) makes 2 the oldest.
	c.publish(1, ix, fakeRun(cells, small, perSlot, 0))
	if got := c.Len(); got != 3000 {
		t.Fatalf("three 1,000-entry namespaces hold %d entries", got)
	}

	// A fourth namespace that leaves room for exactly one of the others.
	bigSlots := (sharedCacheCap - 1500) / perSlot
	c.publish(4, ix, fakeRun(cells, bigSlots, perSlot, 0))
	if got := hasRun(c, 4, ix, bigSlots, perSlot, 0); got != bigSlots*perSlot {
		t.Fatalf("published namespace serves %d of its %d keys", got, bigSlots*perSlot)
	}
	for ns, want := range map[uint64]int{1: small * perSlot, 2: 0, 3: 0} {
		if got := hasRun(c, ns, ix, small, perSlot, 0); got != want {
			t.Errorf("namespace %d serves %d keys after the cap was enforced, want %d (oldest dropped first)", ns, got, want)
		}
	}
	if got, want := c.Len(), bigSlots*perSlot+small*perSlot; got != want {
		t.Errorf("Len() = %d after eviction, want %d", got, want)
	}

	// A publish larger than the whole cap evicts everything else and keeps
	// every one of its own entries.
	overSlots := sharedCacheCap/perSlot + 100
	c.publish(5, ix, fakeRun(cells, overSlots, perSlot, 7))
	if got := hasRun(c, 5, ix, overSlots, perSlot, 7); got != overSlots*perSlot {
		t.Fatalf("over-cap publish serves %d of its own %d keys", got, overSlots*perSlot)
	}
	if got := c.Len(); got != overSlots*perSlot {
		t.Errorf("Len() = %d after an over-cap publish of %d entries: other namespaces survived", got, overSlots*perSlot)
	}
}

// TestSharedCacheInvalidateDropsTables: Invalidate releases the tables
// (Len 0, no namespace left), a searcher that resolved its table before
// the invalidation is served nothing from it afterwards, and republishing
// the same run holds what one publish holds, not two.
func TestSharedCacheInvalidateDropsTables(t *testing.T) {
	cache := NewSharedCache()
	run := func(s *Searcher) []float64 {
		var out []float64
		for _, id := range s.M.Shareable() {
			out = append(out, s.BestCost(s.NewNodeSet(id)))
		}
		return out
	}
	s1 := buildSearcher(t, sharedPairQueries()...)
	s1.AttachSharedCache(cache)
	want := run(s1)
	s1.PublishCache()
	one := cache.Len()
	if one == 0 {
		t.Fatal("publish stored nothing")
	}

	early := buildSearcher(t, sharedPairQueries()...)
	early.AttachSharedCache(cache)
	run(early)
	if early.SharedHits == 0 || early.l2 == nil {
		t.Fatal("second searcher never read the published table")
	}

	cache.Invalidate()
	if cache.Len() != 0 || len(cache.spaces) != 0 {
		t.Fatalf("invalidated cache holds %d entries in %d namespaces", cache.Len(), len(cache.spaces))
	}
	early.Stats = Stats{}
	for i, v := range run(early) {
		if v != want[i] {
			t.Errorf("cost %d after invalidation %v != %v", i, v, want[i])
		}
	}
	if early.SharedHits != 0 {
		t.Errorf("searcher attached before the invalidation was served %d stale lookups", early.SharedHits)
	}
	early.PublishCache()
	if got := cache.Len(); got != one {
		t.Errorf("republished run holds %d entries, one publish held %d", got, one)
	}
	again := buildSearcher(t, sharedPairQueries()...)
	again.AttachSharedCache(cache)
	run(again)
	again.PublishCache()
	if got := cache.Len(); got != one {
		t.Errorf("identical run published twice holds %d entries, want %d", got, one)
	}
}

// workloadMemo builds the combined DAG of a generated batch.
func workloadMemo(t testing.TB, queries int) *memo.Memo {
	t.Helper()
	m, err := memo.Build(tpcd.Catalog(1), cost.Default(), workload.MustGenerate(workload.DefaultSpec(queries, 0.25)))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return m
}

// randomSets draws n materialization sets over the searcher's shareable
// nodes, each node in with probability 1/4.
func randomSets(s *Searcher, rng *rand.Rand, n int) []NodeSet {
	sets := make([]NodeSet, n)
	for i := range sets {
		sets[i] = s.NewNodeSet()
		for _, id := range s.M.Shareable() {
			if rng.Intn(4) == 0 {
				sets[i].Add(id)
			}
		}
	}
	return sets
}

// TestSharedCacheReadDuringPublish guards the lock-free read path (run
// under -race by CI's full-p{1,2,4} rows): four searchers over one memo,
// each a 4-worker pool, evaluate batches while the others publish into
// the same namespace; every cost must be bit-identical to an unattached
// searcher's. GOMAXPROCS is forced so a 1-vCPU runner fans out too.
func TestSharedCacheReadDuringPublish(t *testing.T) {
	withProcs(t, 4)
	m := workloadMemo(t, 8)
	ref := NewSearcher(m)
	const rounds, perRound = 4, 24
	sets := randomSets(ref, rand.New(rand.NewSource(11)), rounds*perRound)
	want := make([]float64, len(sets))
	for i, set := range sets {
		want[i] = ref.BestCost(set)
	}

	cache := NewSharedCache()
	searchers := make([]*Searcher, 4)
	for k := range searchers {
		searchers[k] = NewSearcher(m)
		searchers[k].AttachSharedCache(cache)
	}
	var wg sync.WaitGroup
	for k, s := range searchers {
		wg.Add(1)
		go func(k int, s *Searcher) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Each searcher walks the rounds from its own offset, so one
				// publishes a round's keys while another still reads them.
				lo := ((r + k) % rounds) * perRound
				got, ok := s.BestCostBatchCtx(context.Background(), sets[lo:lo+perRound])
				if !ok {
					t.Errorf("searcher %d round %d: batch aborted", k, r)
					return
				}
				for i, v := range got {
					if v != want[lo+i] {
						t.Errorf("searcher %d set %d: %v != unattached %v", k, lo+i, v, want[lo+i])
						return
					}
				}
				s.PublishCache()
			}
		}(k, s)
	}
	wg.Wait()
	hits := 0
	for _, s := range searchers {
		hits += s.SharedHits
	}
	if hits == 0 {
		t.Error("no searcher was ever served by the shared cache")
	}
}

// slotBuckets lists the head and every chain bucket of a slot.
func slotBuckets(s *l1Slot) []any {
	var bs []any
	if h := s.small.Load(); h != nil {
		bs = append(bs, h)
	}
	for b := s.full.Load(); b != nil; b = b.next.Load() {
		bs = append(bs, b)
	}
	return bs
}

// liveL1Entries counts the entries in the run's L1, every link of every
// chain: what the next PublishCache has to hand over.
func liveL1Entries(s *Searcher) int {
	n := 0
	for i := range s.l1 {
		n += s.l1[i].len()
	}
	return n
}

// TestPublishCacheMovesBucketsOut: after a publish the run holds no bucket
// the table owns, so what the searcher stores next stays its own until its
// next publish; and the searcher itself keeps pricing and
// validating plans through the table.
func TestPublishCacheMovesBucketsOut(t *testing.T) {
	m := workloadMemo(t, 8)
	cache := NewSharedCache()
	withProcs(t, 4)
	s := NewSearcher(m)
	s.AttachSharedCache(cache)
	sets := randomSets(s, rand.New(rand.NewSource(3)), 33)
	first, late := sets[:32], sets[32]
	if _, ok := s.BestCostBatchCtx(context.Background(), first); !ok {
		t.Fatal("batch aborted")
	}
	plan := s.BestPlan(first[0])
	s.PublishCache()

	if n := liveL1Entries(s); n != 0 || s.l1 != nil {
		t.Fatalf("the run still holds an L1 (%d entries) after the publish", n)
	}
	owned := map[any]bool{} // every head and chain bucket of the table
	tab, _ := cache.resolve(s.Fingerprint(), s.cells)
	for i := range tab {
		for _, b := range slotBuckets(&tab[i]) {
			owned[b] = true
		}
	}
	if len(owned) == 0 {
		t.Fatal("publish left the table empty")
	}
	if err := s.ValidatePlan(plan, first[0]); err != nil {
		t.Fatalf("ValidatePlan after the publish: %v", err)
	}

	// Work after the publish lands in a fresh L1.
	s.Stats = Stats{}
	want := s.BestCost(late)
	fresh := s.ComputedKey
	if fresh == 0 {
		t.Fatal("the late set computed no new key; pick another")
	}
	for i := range tab {
		for _, b := range slotBuckets(&tab[i]) {
			if !owned[b] {
				t.Fatalf("table slot %d changed without a publish", i)
			}
		}
	}
	peer := NewSearcher(m)
	peer.AttachSharedCache(cache)
	if got := peer.BestCost(late); got != want {
		t.Fatalf("peer cost %v != %v", got, want)
	}
	if peer.ComputedKey != fresh {
		t.Errorf("peer computed %d keys, the publisher %d: unpublished work leaked (or was lost)", peer.ComputedKey, fresh)
	}
	s.PublishCache()
	after := NewSearcher(m)
	after.AttachSharedCache(cache)
	if got := after.BestCost(late); got != want || after.ComputedKey != 0 {
		t.Errorf("after the second publish a peer computed %d keys (cost %v, want %v)", after.ComputedKey, got, want)
	}
}

// TestRepublishGrowsByNewKeysOnly: shared hits are not copied into the L1,
// so a run publishes what it computed and nothing else — an identical run
// adds nothing, a run with new sets adds exactly its new keys.
func TestRepublishGrowsByNewKeysOnly(t *testing.T) {
	withProcs(t, 1)
	m := workloadMemo(t, 8)
	cache := NewSharedCache()
	attach := func() *Searcher {
		s := NewSearcher(m)
		s.AttachSharedCache(cache)
		return s
	}
	s1 := attach()
	sets := randomSets(s1, rand.New(rand.NewSource(5)), 24)
	for _, set := range sets[:16] {
		s1.BestCost(set)
	}
	s1.PublishCache()
	one := cache.Len()

	s2 := attach()
	for _, set := range sets[:16] {
		s2.BestCost(set)
	}
	if n := liveL1Entries(s2); n != 0 || s2.ComputedKey != 0 {
		t.Fatalf("identical warm run holds %d L1 entries and computed %d keys, want 0 / 0", n, s2.ComputedKey)
	}
	s2.PublishCache()
	if got := cache.Len(); got != one {
		t.Fatalf("identical run grew the cache from %d to %d entries", one, got)
	}

	s3 := attach()
	for _, set := range sets {
		s3.BestCost(set)
	}
	added := liveL1Entries(s3)
	if added == 0 {
		t.Fatal("the extra sets computed nothing new")
	}
	s3.PublishCache()
	if got := cache.Len(); got != one+added {
		t.Fatalf("cache holds %d entries after a run that computed %d new keys on top of %d", got, added, one)
	}
}

// errAfterCtx reports cancellation once Err has been consulted n times —
// a deterministic mid-batch abort trigger for the sequential path.
type errAfterCtx struct {
	left int
}

func (c *errAfterCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *errAfterCtx) Done() <-chan struct{}       { return nil }
func (c *errAfterCtx) Value(any) any               { return nil }

func (c *errAfterCtx) Err() error {
	if c.left <= 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

// TestBestCostBatchCtxReturnsCompletedPrefix: an aborted batch hands back
// the leading results it finished, bit-identical to sequential calls.
func TestBestCostBatchCtxReturnsCompletedPrefix(t *testing.T) {
	s := buildSearcher(t, sharedPairQueries()...)
	sh := s.M.Shareable()
	if len(sh) < 2 {
		t.Fatalf("need ≥ 2 shareable nodes, have %d", len(sh))
	}
	// Singletons, the empty set, pairs: enough distinct sets to abort in
	// the middle of.
	mats := []NodeSet{{}, s.NewNodeSet(sh[0]), s.NewNodeSet(sh[1]), s.NewNodeSet(sh[0], sh[1]), s.NewNodeSet(sh[0])}
	want := make([]float64, len(mats))
	for i, m := range mats {
		want[i] = s.BestCost(m)
	}
	withProcs(t, 1)
	costs, ok := s.BestCostBatchCtx(&errAfterCtx{left: 3}, mats)
	if ok {
		t.Fatal("aborted batch reported ok")
	}
	if len(costs) != 3 {
		t.Fatalf("completed prefix has %d results, want 3", len(costs))
	}
	for i, c := range costs {
		if c != want[i] {
			t.Errorf("prefix cost %d: %v != sequential %v", i, c, want[i])
		}
	}
	// The concurrent dispatch path under an already-dead context completes
	// nothing: the prefix is empty, never partial garbage.
	withProcs(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	costs, ok = s.BestCostBatchCtx(ctx, mats)
	if ok || len(costs) != 0 {
		t.Errorf("dead-context batch: ok=%v prefix=%d, want false/empty", ok, len(costs))
	}
}

// BenchmarkSharedCacheGet measures one warm L2 probe through
// worker.cached: an L1 miss, the table slot's atomic load and the chain
// probe. It must not allocate. Not in the CI gate set.
func BenchmarkSharedCacheGet(b *testing.B) {
	m := workloadMemo(b, 32)
	cache := NewSharedCache()
	s := NewSearcher(m)
	s.AttachSharedCache(cache)
	for _, set := range randomSets(s, rand.New(rand.NewSource(1)), 64) {
		s.BestCost(set)
	}
	s.PublishCache()

	reader := NewSearcher(m)
	reader.AttachSharedCache(cache)
	w := reader.worker(0)
	type probe struct {
		idx, kind int
		mask      uint64
	}
	var probes []probe
	for i := range reader.l2 {
		reader.l2[i].links(func(occ uint64, entries []l1Entry) {
			for ; occ != 0; occ &= occ - 1 {
				probes = append(probes, probe{idx: i / 2, kind: i % 2, mask: entries[bits.TrailingZeros64(occ)].mask})
			}
		})
	}
	rand.New(rand.NewSource(2)).Shuffle(len(probes), func(i, j int) { probes[i], probes[j] = probes[j], probes[i] })
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		p := probes[i%len(probes)]
		v, ok := w.cached(p.idx, p.mask, p.kind)
		if !ok {
			b.Fatal("published key missed")
		}
		sink += v
	}
	benchSink = sink
}
