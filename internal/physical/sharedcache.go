package physical

import (
	"math"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/memo"
)

// sharedCacheCap bounds the cost entries a SharedCache holds across all of
// its namespaces. Cached costs are pure functions of their key, so when a
// publish or an import takes the cache over the bound, whole namespaces are
// dropped, least recently published first, and relearned if they come
// back — eviction can never change a result, only cost a recomputation.
// The namespace being published is never the one dropped, so one publish
// larger than the bound survives whole.
const sharedCacheCap = 1 << 19

// freeCellCap bounds the cells of the workers a SharedCache keeps for reuse,
// all of them together: at 48 B a cell (two 16-byte memo cells and two L1
// bucket pointers) their tables stay under ≈ 25 MB, below what the cost
// entries themselves may hold. Measured at generator seed 1000, a worker for
// a 64-query batch is 11,770 cells (0.56 MB) and one for the 256-query stress
// tier 134,777 (6.5 MB), so a worker per core of either is kept.
const freeCellCap = 1 << 19

// benefitCap bounds the memoized oracle values a SharedCache holds. They
// live apart from the cost tables (a run stores a few hundred, one per
// distinct oracle call), so filling up drops only them.
const benefitCap = 1 << 16

// SharedCache is the cross-call cost cache owned by a longer-lived holder —
// repro.Session — and attached to every searcher the holder creates. It
// keeps one table per search-space namespace (the searcher's structural
// fingerprint mixed with its operator flags), so caches attached to
// different DAGs or flag settings never observe each other's values, and a
// batch identical to an earlier one starts warm instead of relearning per
// worker.
//
// A table has the geometry of a worker's L1: slot 2*cell+kind holds an
// atomically loaded pointer to a short chain of l1Buckets that are
// immutable once published. A worker resolves its namespace's table
// once per oracle call (nil when nothing was published under it, so a cold
// run never probes the SharedCache at all) and on an L1 miss probes the
// slot's chain directly: no lock, no hash, and no copy into the L1 — the
// L1 holds only what its own run computed. Workers never write the cache
// mid-evaluation; Searcher.PublishCache hands their buckets over when the
// owner decides a call's learning is worth keeping (repro.Session
// publishes after every Optimize call).
//
// Cached values are pure functions of their full key; the cache therefore
// never changes any cost, only how often it is recomputed, and lookups are
// safe from any number of workers concurrently with publishes, imports and
// invalidations. Memoized oracle values (GetBenefit/PutBenefit) sit in a
// small map of their own behind a separate lock.
//
// The cache also keeps the workers themselves. A searcher's PublishCache
// leaves its workers' L1s empty, and what remains — the cell-sized scratch
// tables a new worker would allocate and clear again — goes on a free list
// the next searcher attached to the cache takes from (Searcher.worker): a
// few workers for the whole cache, at most GOMAXPROCS and freeCellCap cells
// together, whatever DAG they last served. Only PublishCache puts workers
// there, so a run stopped by a panic, which never publishes, never returns
// one.
type SharedCache struct {
	// gen moves whenever a namespace gains or loses its table, telling
	// workers to resolve again; it starts at 1 so a worker's zero value
	// never matches.
	gen atomic.Uint64

	mu     sync.Mutex // serialises publish, import, export and invalidation
	epoch  uint64     // Invalidate count: workers flush their L1 when it moves
	clock  uint64     // publish clock behind nsTable.stamp
	total  int        // cost entries across spaces
	spaces map[uint64]*nsTable

	benMu    sync.RWMutex
	benefits map[benefitKey]float64

	freeMu sync.Mutex
	free   []*worker // no owner; see takeWorker / putWorkers
	tables []l1Table // empty run L1s; see takeTable / putTable
}

// nsTable is one namespace's cost entries: slots holds them by cell, and ix
// — the compiled, immutable index of the searcher that shaped the table —
// maps a cell back to the (group, order) its keys carry outside (insert,
// each). Entries imported before any searcher of the namespace was seen wait
// in held (the index is not on the wire) and are folded into slots by the
// first one that resolves or publishes.
type nsTable struct {
	stamp uint64 // clock reading of the last publish or import
	n     int    // entries in slots and held
	ix    cellIndex
	slots l1Table
	held  []sharedKV // canonical order, no duplicate keys
}

type benefitKey struct{ ns, key uint64 }

// NewSharedCache returns an empty cache ready for concurrent use.
func NewSharedCache() *SharedCache {
	c := &SharedCache{
		spaces:   make(map[uint64]*nsTable),
		benefits: make(map[benefitKey]float64),
	}
	c.gen.Store(1)
	return c
}

// Invalidate drops every table and memoized oracle value, releasing their
// memory (a run in flight keeps the tables it resolved until its next
// oracle call). Searchers with other operator flags do not require it
// (their namespaces are disjoint); it exists for holders that want to bound
// memory or force a cold start.
func (c *SharedCache) Invalidate() {
	c.mu.Lock()
	c.spaces = make(map[uint64]*nsTable)
	c.total = 0
	c.epoch++
	c.gen.Add(1)
	c.mu.Unlock()
	c.benMu.Lock()
	c.benefits = make(map[benefitKey]float64)
	c.benMu.Unlock()
	c.freeMu.Lock()
	c.free, c.tables = nil, nil
	c.freeMu.Unlock()
}

// FreeWorkers reports how many workers wait on the free list (for tests and
// introspection).
func (c *SharedCache) FreeWorkers() int {
	c.freeMu.Lock()
	defer c.freeMu.Unlock()
	return len(c.free)
}

// cellCap is the number of cells the worker's tables can serve without
// reallocating.
func (w *worker) cellCap() int { return cap(w.useMemo) }

// takeWorker removes and returns the free worker whose tables fit a DAG of
// the given cell count most tightly, or nil when none is large enough. The
// caller binds it.
func (c *SharedCache) takeWorker(cells int) *worker {
	c.freeMu.Lock()
	defer c.freeMu.Unlock()
	return takeTightest(&c.free, (*worker).cellCap, cells)
}

// putWorkers puts workers their searcher is done with on the free list and
// enforces its bounds by dropping the smallest: a large worker serves any
// DAG a small one does.
func (c *SharedCache) putWorkers(ws []*worker) {
	c.freeMu.Lock()
	defer c.freeMu.Unlock()
	for _, w := range ws {
		w.s, w.l1, w.l2 = nil, nil, nil // hold neither the searcher nor its tables
		c.free = append(c.free, w)
	}
	keepLargest(&c.free, (*worker).cellCap, freeCellCap)
}

// tableCells is the number of cells an L1 table can serve.
func tableCells(t l1Table) int { return cap(t) / 2 }

// takeTable removes and returns the spare L1 table that fits a DAG of the
// given cell count most tightly, resliced to it and empty, or nil when none
// is large enough.
func (c *SharedCache) takeTable(cells int) l1Table {
	c.freeMu.Lock()
	defer c.freeMu.Unlock()
	if t := takeTightest(&c.tables, tableCells, cells); t != nil {
		return t[:2*cells]
	}
	return nil
}

// putTable keeps a run's L1 table, whose buckets a publish has taken, for
// the next run: a warm run stores little, and a new table is 16 B a cell.
// Like the workers, at most GOMAXPROCS tables and freeCellCap cells are
// kept, the smallest dropped first.
func (c *SharedCache) putTable(t l1Table) {
	clear(t)
	c.freeMu.Lock()
	defer c.freeMu.Unlock()
	c.tables = append(c.tables, t)
	keepLargest(&c.tables, tableCells, freeCellCap)
}

// takeTightest removes and returns the item of a free list whose size fits
// the need most tightly, or the zero value when none is large enough. Order
// is not kept.
func takeTightest[T any](list *[]T, size func(T) int, need int) T {
	var none T
	best := -1
	for i, x := range *list {
		if size(x) >= need && (best < 0 || size(x) < size((*list)[best])) {
			best = i
		}
	}
	if best < 0 {
		return none
	}
	return removeAt(list, best)
}

// keepLargest drops the smallest items of a free list until it holds at
// most GOMAXPROCS of them, of at most maxSize in all.
func keepLargest[T any](list *[]T, size func(T) int, maxSize int) {
	total := 0
	for _, x := range *list {
		total += size(x)
	}
	for len(*list) > 0 && (len(*list) > runtime.GOMAXPROCS(0) || total > maxSize) {
		small := 0
		for i, x := range *list {
			if size(x) < size((*list)[small]) {
				small = i
			}
		}
		total -= size(removeAt(list, small))
	}
}

// removeAt takes the i-th item off a free list (order is not kept).
func removeAt[T any](list *[]T, i int) T {
	l := *list
	x, last := l[i], len(l)-1
	var none T
	l[i], l[last] = l[last], none
	*list = l[:last]
	return x
}

// Len reports the live entry count, cost keys and memoized oracle values
// together (for tests and introspection).
func (c *SharedCache) Len() int {
	c.mu.Lock()
	n := c.total
	c.mu.Unlock()
	c.benMu.RLock()
	n += len(c.benefits)
	c.benMu.RUnlock()
	return n
}

// benefitGroup is the reserved pseudo-group benefit-oracle entries carry in
// a CacheSnapshot: real groups are non-negative, so mb(S) values — keyed by
// the submod set key in the mask field — travel beside the (group, order,
// mask) cost entries of their namespace without ever colliding with them.
const benefitGroup = memo.GroupID(-1)

// GetBenefit looks up a memoized oracle value mb(S) under a namespace;
// key is the submod set key of S. Safe for concurrent use.
func (c *SharedCache) GetBenefit(ns, key uint64) (float64, bool) {
	c.benMu.RLock()
	v, ok := c.benefits[benefitKey{ns, key}]
	c.benMu.RUnlock()
	return v, ok
}

// PutBenefit publishes one memoized oracle value under a namespace. Values
// are pure functions of (namespace, key), so concurrent writers can only
// ever store the same value. Safe for concurrent use; a single guarded map
// write, cheap enough to call per fresh oracle evaluation. At benefitCap
// the oracle values (and only they) are dropped and relearned.
func (c *SharedCache) PutBenefit(ns, key uint64, v float64) {
	c.benMu.Lock()
	if len(c.benefits) >= benefitCap {
		c.benefits = make(map[benefitKey]float64)
	}
	c.benefits[benefitKey{ns, key}] = v
	c.benMu.Unlock()
}

// sharedKV is one cost entry outside a table: what a snapshot carries.
type sharedKV struct {
	k cacheKey
	v float64
}

// keyLess is the canonical key order of a snapshot: ascending (g, ord,
// compute, mask), use costs before compute costs.
func keyLess(a, b cacheKey) bool {
	if a.g != b.g {
		return a.g < b.g
	}
	if a.ord != b.ord {
		return a.ord < b.ord
	}
	if a.compute != b.compute {
		return !a.compute
	}
	return a.mask < b.mask
}

// sortKVs puts entries in canonical order and drops repeated keys.
func sortKVs(kvs []sharedKV) []sharedKV {
	less := func(a, b int) bool { return keyLess(kvs[a].k, kvs[b].k) }
	if !sort.SliceIsSorted(kvs, less) {
		sort.Slice(kvs, less)
	}
	out := kvs[:0]
	for i, e := range kvs {
		if i == 0 || e.k != kvs[i-1].k {
			out = append(out, e)
		}
	}
	return out
}

// space returns the namespace's record, creating it if need be.
func (c *SharedCache) space(ns uint64) *nsTable {
	t := c.spaces[ns]
	if t == nil {
		t = &nsTable{}
		c.spaces[ns] = t
		c.gen.Add(1)
	}
	return t
}

// touch marks the namespace the most recently published.
func (c *SharedCache) touch(t *nsTable) {
	c.clock++
	t.stamp = c.clock
}

// evict enforces sharedCacheCap by dropping whole namespaces, least
// recently published first, never keep.
func (c *SharedCache) evict(keep *nsTable) {
	for c.total > sharedCacheCap {
		var victim *nsTable
		var victimNS uint64
		for ns, t := range c.spaces {
			if t != keep && (victim == nil || t.stamp < victim.stamp) {
				victim, victimNS = t, ns
			}
		}
		if victim == nil {
			return
		}
		delete(c.spaces, victimNS)
		c.total -= victim.n
		c.gen.Add(1)
	}
}

// shaped gives the table a searcher's geometry, its cell index —
// allocating the slots and folding held entries in the first time — and
// reports whether the table has that geometry: as many cells over as many
// groups (equal search spaces compile to equal indexes). It can only differ
// when two search spaces collide on the 64-bit namespace; the later one then
// goes uncached.
func (c *SharedCache) shaped(t *nsTable, ix cellIndex) bool {
	if t.slots == nil {
		t.ix = ix
		t.slots = make(l1Table, 2*ix.len())
		held := t.held
		c.total -= t.n
		t.held, t.n = nil, 0
		c.insert(t, held)
	}
	return t.ix.len() == ix.len() && len(t.ix.start) == len(ix.start)
}

// resolve returns the slots of the namespace's table, nil when nothing is
// published under it, together with the invalidation epoch.
func (c *SharedCache) resolve(ns uint64, ix cellIndex) (l1Table, uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t := c.spaces[ns]; t != nil && c.shaped(t, ix) {
		return t.slots, c.epoch
	}
	return nil, c.epoch
}

// insert adds canonical-order entries to a shaped table, skipping keys the
// table already has, keys that have no cell in its index and use-cost keys of
// a group with no shareable slot (no searcher of the namespace can ask for
// either).
func (c *SharedCache) insert(t *nsTable, kvs []sharedKV) {
	var extra []l1Entry
	for len(kvs) > 0 {
		k := kvs[0].k
		run := 1
		for run < len(kvs) && kvs[run].k.g == k.g && kvs[run].k.ord == k.ord && kvs[run].k.compute == k.compute {
			run++
		}
		if cell, ok := t.ix.cell(k.g, k.ord); ok && (k.compute || t.ix.useKeys[k.g]) {
			i := 2 * cell
			if k.compute {
				i += kindComp
			}
			head := t.slots[i].Load()
			extra = extra[:0]
			for _, e := range kvs[:run] {
				if _, ok := head.find(e.k.mask); !ok {
					extra = append(extra, l1Entry{mask: e.k.mask, val: e.v})
				}
			}
			t.extend(i, extra)
			t.n += len(extra)
			c.total += len(extra)
		}
		kvs = kvs[run:]
	}
}

// extend publishes entries the chain of slot i lacks. When they fit under
// the head bucket's fill bound the head is copied, extended and swapped in
// (copy-on-write: a published bucket is never written); otherwise they go
// into new links in front of the chain.
func (t *nsTable) extend(i int, extra []l1Entry) {
	head := t.slots[i].Load()
	for len(extra) > 0 {
		nb, room := &l1Bucket{next: head}, l1MaxFill
		if head != nil && bits.OnesCount64(head.occ)+len(extra) <= l1MaxFill {
			*nb = *head
			room -= bits.OnesCount64(head.occ)
		}
		if room > len(extra) {
			room = len(extra)
		}
		for _, e := range extra[:room] {
			nb.put(e.mask, e.val)
		}
		extra = extra[room:]
		head = nb
	}
	t.slots[i].Store(head)
}

// absorb takes a run's L1 bucket into slot i and returns how many entries
// the table gained. An empty slot adopts the bucket itself — the caller has
// taken the L1 away from its run, so nothing writes it again; an occupied
// one is extended by the entries its chain lacks.
func (t *nsTable) absorb(i int, b *l1Bucket) int {
	head := t.slots[i].Load()
	if head == nil {
		t.slots[i].Store(b)
		return bits.OnesCount64(b.occ)
	}
	var buf [l1BucketCap]l1Entry
	extra := buf[:0]
	for occ := b.occ; occ != 0; occ &= occ - 1 {
		e := b.entries[bits.TrailingZeros64(occ)]
		if _, ok := head.find(e.mask); !ok {
			extra = append(extra, e)
		}
	}
	t.extend(i, extra)
	return len(extra)
}

// each calls fn for every entry in the table's slots, ascending by (group,
// order, kind): the cells are numbered that way.
func (t *nsTable) each(fn func(k cacheKey, v float64)) {
	g := memo.GroupID(0)
	for i := range t.slots {
		cell := i / 2
		for cell >= int(t.ix.start[g+1]) {
			g++
		}
		k := cacheKey{g: g, ord: t.ix.ord[cell], compute: i%2 == kindComp}
		for b := t.slots[i].Load(); b != nil; b = b.next {
			for occ := b.occ; occ != 0; occ &= occ - 1 {
				e := &b.entries[bits.TrailingZeros64(occ)]
				k.mask = e.mask
				fn(k, e.val)
			}
		}
	}
}

// fnv64 accumulates an FNV-1a hash over mixed-width values.
type fnv64 uint64

func newFNV64() fnv64 { return 14695981039346656037 }

func (h *fnv64) u64(v uint64) {
	x := uint64(*h)
	for i := 0; i < 8; i++ {
		x ^= (v >> uint(8*i)) & 0xff
		x *= 1099511628211
	}
	*h = fnv64(x)
}

func (h *fnv64) i(v int)     { h.u64(uint64(int64(v))) }
func (h *fnv64) f(v float64) { h.u64(math.Float64bits(v)) }

func (h *fnv64) b(v bool) {
	if v {
		h.u64(1)
	} else {
		h.u64(0)
	}
}

func (h *fnv64) str(s string) {
	h.i(len(s))
	for i := 0; i < len(s); i++ {
		h.u64(uint64(s[i]))
	}
}

// structHash fingerprints the compiled search space: groups, query roots,
// shareable slots, per-group cost constants and every candidate template
// with its precomputed costs. Two searchers with equal hashes price every
// (group, order, mask) key identically, so the hash — combined with the
// operator flags (Fingerprint) — namespaces entries in a SharedCache. The
// 64-bit fingerprint makes a cross-DAG collision astronomically unlikely
// rather than impossible; a collision could only surface when one
// SharedCache is attached to searchers over different batches.
func (s *space) structHash() uint64 {
	h := newFNV64()
	h.i(s.M.NumGroups())
	h.i(s.numOrds)
	h.i(len(s.M.QueryRoots))
	for _, r := range s.M.QueryRoots {
		h.i(int(r))
	}
	h.i(s.SI.Len())
	for g := 0; g < s.M.NumGroups(); g++ {
		h.i(s.SI.Pos(memo.GroupID(g)))
		h.f(s.blocksArr[g])
		h.f(s.sortArr[g])
		h.f(s.readArr[g])
		h.f(s.writeArr[g])
		h.i(len(s.tmpls[g]))
		for i := range s.tmpls[g] {
			t := &s.tmpls[g][i]
			h.str(t.op)
			h.f(t.local)
			h.f(t.localSpill)
			h.i(int(t.matGate))
			h.i(int(t.out))
			h.i(int(t.nchild))
			for ci := uint8(0); ci < t.nchild; ci++ {
				h.i(int(t.child[ci].g))
				h.i(int(t.child[ci].ord))
			}
			h.b(t.passthrough)
			h.b(t.extended)
		}
	}
	return uint64(h)
}

// Fingerprint identifies the compiled search space plus the cost-relevant
// operator flags: the structural fingerprint mixed with a constant per flag,
// the 64-bit namespace SharedCache entries live under. Checkpoint tokens
// embed it so a resume against a different catalog, batch, or flag setting
// is rejected instead of silently producing garbage. Stored orders for
// materializations (worker.stored), once a flag, are always on; their
// constant stays, so fingerprints — and the tokens and snapshots that carry
// them — keep their values.
func (s *Searcher) Fingerprint() uint64 {
	ns := s.structSum ^ 0xe703_7ed1_a0b4_28db
	if s.ExtendedOps {
		ns ^= 0xa076_1d64_78bd_642f
	}
	return ns
}

// AttachSharedCache attaches a cross-call L2 cache: the run keeps its L1
// for what its workers compute, they read c on an L1 miss, and PublishCache
// hands the L1 over — and then the workers, which the searcher also takes
// from c when c has some to spare. A nil c detaches, leaving the run's L1
// as its only cache — the default for a fresh searcher. Attach only between
// evaluations, never during a concurrent batch.
func (s *Searcher) AttachSharedCache(c *SharedCache) {
	s.shared = c
	s.l2, s.sharedGen = nil, 0
}

// Shared returns the attached cross-call L2 cache (nil unless attached).
func (s *Searcher) Shared() *SharedCache { return s.shared }

// PublishCache moves the run's cross-call cache (the L1) into the attached
// SharedCache under the current flag namespace — the write half of the
// L1/L2 protocol, kept off the evaluation hot path — and then gives the
// workers to the cache's free list for the next searcher (see the package
// comment for the borrow rule); the run starts its next L1 empty. It is a
// no-op without an attached cache (with the incremental cache disabled the
// L1 is empty and it only returns the workers) and must only be called
// between evaluations, like every other cache operation — and never on a
// searcher a panic has poisoned.
func (s *Searcher) PublishCache() {
	if s.shared == nil {
		return
	}
	if s.l1 != nil {
		s.settle()
		if !s.shared.publish(s.Fingerprint(), s.cells, s.l1) {
			s.shared.putTable(s.l1)
		}
	}
	s.l1 = nil
	s.shared.putWorkers(s.workers)
	s.workers = nil
}

// publish hands a run's L1 to the namespace's table. A namespace with no
// table adopts the L1 whole, slot array and buckets; an existing table
// adopts each bucket into an empty slot or takes the entries its chain
// lacks (absorb). Nothing is copied that the table does not need, and
// nothing is merged twice: the run's workers stored into one L1. Then it
// marks the namespace most recently published and enforces the cap against
// the others. An empty L1 publishes nothing. publish reports whether the
// table adopted the L1 whole; else the L1's buckets are the table's or
// garbage, and its slot array is free to reuse.
func (c *SharedCache) publish(ns uint64, ix cellIndex, l1 l1Table) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, adopted := c.spaces[ns], false
	switch {
	case t == nil:
		n := 0
		for i := range l1 {
			if b := l1[i].Load(); b != nil {
				n += bits.OnesCount64(b.occ)
			}
		}
		if n == 0 {
			return false
		}
		t = c.space(ns)
		t.ix, t.slots, t.n = ix, l1, n
		c.total += n
		adopted = true
	case !c.shaped(t, ix):
		return false
	default:
		for i := range l1 {
			if b := l1[i].Load(); b != nil {
				n := t.absorb(i, b)
				t.n += n
				c.total += n
			}
		}
	}
	c.touch(t)
	c.evict(t)
	return adopted
}
