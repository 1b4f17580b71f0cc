package physical

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/memo"
)

// sharedCacheShards is the lock-striping width of a SharedCache. Keys are
// spread by a mixed hash, so 64 shards keep write contention negligible
// even with a full worker pool filling the cache concurrently.
const sharedCacheShards = 64

// sharedShardCap bounds each shard's entry count (≈512k entries across the
// cache). Cached costs are pure functions of their key, so when a shard
// fills up it is simply dropped and relearned — eviction can never change
// a result, only cost a recomputation.
const sharedShardCap = 1 << 13

// SharedCache is a sharded, lock-striped cross-call cost cache owned by a
// longer-lived holder — repro.Session — and attached to every searcher the
// holder creates. Entries are keyed by the searcher's structural namespace
// (compiled memo, cost constants and operator flags) plus the incremental
// cache key {group, order, compute, mask}, so caches attached to different
// DAGs or flag settings never observe each other's values, and a batch
// identical to an earlier one starts warm instead of relearning per
// worker.
//
// The hot path stays lock-free: workers read the SharedCache only on a
// private-L1 miss (promoting hits so each shared key pays its read lock at
// most once per worker) and never write it mid-evaluation — freshly
// computed values are published in bulk by Searcher.PublishCache, one lock
// acquisition per shard, when the owner decides a call's learning is worth
// keeping (repro.Session publishes after every Optimize call).
//
// Cached values are pure functions of their full key; the cache therefore
// never changes any cost, only how often it is recomputed, and lookups are
// safe from any number of workers concurrently. Invalidate drops every
// entry in O(1) by bumping the cache epoch (stale entries are ignored and
// lazily overwritten).
type SharedCache struct {
	epoch  atomic.Uint64
	shards [sharedCacheShards]sharedShard
}

type sharedShard struct {
	mu sync.RWMutex
	m  map[sharedKey]sharedEntry
}

type sharedKey struct {
	ns uint64
	k  cacheKey
}

type sharedEntry struct {
	v     float64
	epoch uint64
}

// NewSharedCache returns an empty cache ready for concurrent use.
func NewSharedCache() *SharedCache {
	c := &SharedCache{}
	for i := range c.shards {
		c.shards[i].m = make(map[sharedKey]sharedEntry)
	}
	return c
}

// Invalidate drops every cached entry in O(1) by bumping the epoch.
// Flag toggles do not require it (the namespace already separates flag
// settings); it exists for holders that want to bound memory or force a
// cold start.
func (c *SharedCache) Invalidate() { c.epoch.Add(1) }

// Len reports the live entry count under the current epoch (for tests and
// introspection; takes every shard read-lock).
func (c *SharedCache) Len() int {
	ep := c.epoch.Load()
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		for _, e := range sh.m {
			if e.epoch == ep {
				n++
			}
		}
		sh.mu.RUnlock()
	}
	return n
}

func (c *SharedCache) shardIndex(ns uint64, k cacheKey) uint64 {
	h := ns ^ k.mask ^ uint64(uint32(k.g))<<29 ^ uint64(uint32(k.ord))<<13
	if k.compute {
		h ^= 0x9e3779b97f4a7c15
	}
	h *= 0xff51afd7ed558ccd // fmix64
	h ^= h >> 33
	return h & (sharedCacheShards - 1)
}

func (c *SharedCache) shard(ns uint64, k cacheKey) *sharedShard {
	return &c.shards[c.shardIndex(ns, k)]
}

func (c *SharedCache) get(ns uint64, k cacheKey) (float64, bool) {
	ep := c.epoch.Load()
	sh := c.shard(ns, k)
	sh.mu.RLock()
	e, ok := sh.m[sharedKey{ns: ns, k: k}]
	sh.mu.RUnlock()
	if !ok || e.epoch != ep {
		return 0, false
	}
	return e.v, true
}

// benefitGroup is the reserved pseudo-group benefit-oracle entries are
// stored under: real groups are non-negative, so mb(S) values — keyed by
// the submod set key in the mask field — share the shard maps (and the
// snapshot machinery) with the (group, order, mask) cost entries without
// ever colliding with them.
const benefitGroup = memo.GroupID(-1)

// GetBenefit looks up a memoized oracle value mb(S) under a namespace;
// key is the submod set key of S. Safe for concurrent use.
func (c *SharedCache) GetBenefit(ns, key uint64) (float64, bool) {
	return c.get(ns, cacheKey{g: benefitGroup, mask: key})
}

// PutBenefit publishes one memoized oracle value under a namespace. Values
// are pure functions of (namespace, key), so concurrent writers can only
// ever store the same value. Safe for concurrent use; a single direct
// shard write, cheap enough to call per fresh oracle evaluation.
func (c *SharedCache) PutBenefit(ns, key uint64, v float64) {
	k := cacheKey{g: benefitGroup, mask: key}
	ep := c.epoch.Load()
	sh := c.shard(ns, k)
	sh.mu.Lock()
	if len(sh.m) >= sharedShardCap {
		sh.m = make(map[sharedKey]sharedEntry)
	}
	sh.m[sharedKey{ns: ns, k: k}] = sharedEntry{v: v, epoch: ep}
	sh.mu.Unlock()
}

// sharedKV is one entry of a bulk merge.
type sharedKV struct {
	k cacheKey
	v float64
}

// merge bulk-publishes entries under one namespace, acquiring each shard
// lock once. A shard that cannot absorb its share of the batch under the
// cap is reset — at most once per merge, before any of the batch's
// entries are written — and relearned, so a publish's own learning
// always survives its merge, however large the batch. (Resetting inside
// the write loop, as this used to, kept only the batch's tail and wiped
// every other namespace's entries on each wrap.) Values are pure
// functions of their key, so eviction only ever costs recomputation; a
// shard briefly exceeds the cap only when one merge's own bucket is
// larger than the cap itself.
func (c *SharedCache) merge(ns uint64, kvs []sharedKV) {
	ep := c.epoch.Load()
	buckets := make([][]sharedKV, sharedCacheShards)
	for _, e := range kvs {
		h := c.shardIndex(ns, e.k)
		buckets[h] = append(buckets[h], e)
	}
	for i, b := range buckets {
		if len(b) == 0 {
			continue
		}
		sh := &c.shards[i]
		sh.mu.Lock()
		if len(sh.m)+len(b) > sharedShardCap {
			sh.m = make(map[sharedKey]sharedEntry, len(b))
		}
		for _, e := range b {
			sh.m[sharedKey{ns: ns, k: e.k}] = sharedEntry{v: e.v, epoch: ep}
		}
		sh.mu.Unlock()
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
// operator flags (cacheNS) — namespaces entries in a SharedCache. The
// 64-bit fingerprint makes a cross-DAG collision astronomically unlikely
// rather than impossible; a collision could only surface when one
// SharedCache is attached to searchers over different batches.
func (s *Searcher) structHash() uint64 {
	h := newFNV64()
	h.i(s.M.NumGroups())
	h.i(s.numOrds)
	h.i(len(s.M.QueryRoots))
	for _, r := range s.M.QueryRoots {
		h.i(int(r))
	}
	h.i(s.SI.Len())
	for g := 0; g < s.M.NumGroups(); g++ {
		h.i(int(s.slot[g]))
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

// cacheNS is the SharedCache namespace of the searcher's current flag
// settings: the structural fingerprint mixed with the cost-relevant
// operator flags, so toggling a flag moves to a disjoint namespace
// instead of requiring an invalidation.
func (s *Searcher) cacheNS() uint64 {
	ns := s.structSum
	if s.ExtendedOps {
		ns ^= 0xa076_1d64_78bd_642f
	}
	if s.MatOrders {
		ns ^= 0xe703_7ed1_a0b4_28db
	}
	return ns
}

// Fingerprint identifies the compiled search space plus the cost-relevant
// operator flags: the same 64-bit namespace SharedCache entries live
// under. Checkpoint tokens embed it so a resume against a different
// catalog, batch, or flag setting is rejected instead of silently
// producing garbage.
func (s *Searcher) Fingerprint() uint64 { return s.cacheNS() }

// AttachSharedCache attaches a cross-call L2 cache: every worker keeps its
// private (lock-free) L1 table, missing into c and promoting hits, and
// PublishCache merges the workers' learning back. Attaching a longer-lived
// cache (repro.Session owns one) lets identical batches start warm. A nil
// c detaches, leaving workers with private caches only — the default for
// a fresh searcher. Attach only between evaluations, never during a
// concurrent batch.
func (s *Searcher) AttachSharedCache(c *SharedCache) { s.shared = c }

// Shared returns the attached cross-call L2 cache (nil unless attached).
func (s *Searcher) Shared() *SharedCache { return s.shared }

// PublishCache bulk-merges every worker's private cross-call cache into
// the attached SharedCache under the current flag namespace, one lock
// acquisition per shard — the write half of the L1/L2 protocol, kept off
// the evaluation hot path. It is a no-op without an attached cache (or
// with the incremental cache disabled) and must only be called between
// evaluations, like every other cache operation.
func (s *Searcher) PublishCache() {
	if s.shared == nil || !s.Incremental {
		return
	}
	ns := s.cacheNS()
	for _, w := range s.workers {
		var kvs []sharedKV
		for i, b := range w.l1 {
			if b == nil || b.ep != w.l1Epoch {
				continue
			}
			idx, kind := i/2, i%2
			k := cacheKey{g: memo.GroupID(idx / s.numOrds), ord: ordID(idx % s.numOrds), compute: kind == kindComp}
			for occ := b.occ; occ != 0; occ &= occ - 1 {
				e := &b.entries[bits.TrailingZeros64(occ)]
				k.mask = e.mask
				kvs = append(kvs, sharedKV{k: k, v: e.val})
			}
		}
		if len(kvs) > 0 {
			s.shared.merge(ns, kvs)
		}
	}
}
