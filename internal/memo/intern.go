package memo

import (
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/logical"
)

// BuildCache carries, across Build calls against one catalog, the two
// things a repeated input should not redo.
//
// A repeated batch gets back the memo its first build made. Finished memos
// are held under a batch key — every query's name and canonical structural
// fingerprint (blockKey) in batch order, plus the two rule-ablation flags:
// everything Build reads — so an equal key means an identical DAG, and a hit
// returns the very object the one constructor (buildBlock) produced, with
// whatever its users compiled onto it (Memo.Compiled). A batch with a query
// that is not fingerprintable (derived sources) is built every time. Held
// memos are bounded by heldNodeCap operator nodes, least recently used out.
// A hit is checked against the call's catalog and cost model, so a cache
// wrongly shared across catalogs rebuilds instead of answering with another
// catalog's DAG.
//
// A repeated query in a new batch skips Query.Validate: the cache remembers
// which fingerprints have validated — an equal key means an identical query
// that validated against the same catalog before — and the query is then
// expanded by buildBlock like any other.
//
// Either way results are bit-identical with and without a cache. The
// per-query hit/miss counters are the session's measure of how repetitive
// its traffic is (SessionStats.RecipeHits/RecipeMisses; a batch hit counts
// one hit per query), the per-batch ones say how often the build was skipped
// outright (CompiledHits/CompiledMisses).
//
// A BuildCache must only be shared across builds against one catalog (the
// owner is repro.Session, which fixes the catalog); it is safe for
// concurrent use. Two concurrent builds of one new batch both miss and both
// build — the mutex is never held across construction — and the later one
// replaces the earlier.
type BuildCache struct {
	mu        sync.Mutex
	validated map[string]struct{}
	order     []string // insertion ring for FIFO eviction
	next      int
	max       int

	held  map[string]*heldMemo
	clock uint64 // use clock behind heldMemo.stamp
	nodes int    // Σ NumExprs over held

	hits, misses           atomic.Int64 // per fingerprintable query
	batchHits, batchMisses atomic.Int64 // per successful Build
}

// heldMemo is one finished memo with the clock reading of its last use.
type heldMemo struct {
	m     *Memo
	stamp uint64
}

// buildCacheCap bounds the validated-key set; beyond it the oldest keys are
// evicted FIFO. Eviction only costs a later re-validation, never a result.
const buildCacheCap = 4096

// heldNodeCap bounds the operator nodes (Σ NumExprs) of the memos a
// BuildCache holds. A held node costs 1.2–1.9 kB of heap — the memo's
// groups, operators and property maps plus the search space the physical
// layer compiles onto it; live heap over Σ NumExprs reads 1.95 kB on the
// benchmark generator's 16-query σ = 0.25 batches, 1.56 kB at 32 queries
// and 1.20 kB at 64 (physical.TestHeldBytesPerNode guards 3 kB) — so a full
// cache is ≈ 45 MB at the 32-query density: what the session's cost cache
// (physical.SharedCache) holds at its own bound, ≈ 44 MB of peak heap a
// session on the benchmark's warm_fit. The bytes are the whole reason for
// the number. Least-recently-used eviction over a working set that cycles
// is all or nothing — one cycle a node longer than the bound and every
// build misses while the cache still holds and evicts — and that side of
// the bound is unmeasured: the benchmark's largest per-session cycle (24
// batches of 32 queries, 25.9–26.8 k nodes over seeds 1–8) happens to fit
// with ≈ 7 % to spare, and no workload runs past it. A memo larger than the
// bound is not held at all.
const heldNodeCap = 28 << 10

// NewBuildCache returns an empty cache.
func NewBuildCache() *BuildCache {
	return &BuildCache{validated: map[string]struct{}{}, max: buildCacheCap, held: map[string]*heldMemo{}}
}

// Stats reports how many fingerprintable per-query builds found their
// structural key already validated versus validated and recorded it. A
// batch served from a held memo counts one hit per query.
func (c *BuildCache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// Compiled reports how many Builds returned a held memo versus constructed
// one, and the operator nodes currently held.
func (c *BuildCache) Compiled() (hits, misses int64, nodes int) {
	c.mu.Lock()
	nodes = c.nodes
	c.mu.Unlock()
	return c.batchHits.Load(), c.batchMisses.Load(), nodes
}

// Drop releases every held memo (and with it whatever was compiled onto
// it). The validated keys stay: validity is a pure function of (catalog,
// query) and never goes stale.
func (c *BuildCache) Drop() {
	c.mu.Lock()
	c.held = map[string]*heldMemo{}
	c.nodes = 0
	c.mu.Unlock()
}

// WithBuildCache attaches a cache to the build: a batch of fingerprintable
// queries (single-block, base sources only) that repeats an earlier one
// gets that build's memo back, and a fingerprintable query that repeats an
// earlier one skips validation. Results are bit-identical with and without
// a cache. The returned memo may be shared with other callers: treat it as
// read-only.
func WithBuildCache(c *BuildCache) Option {
	return func(cfg *buildConfig) { cfg.cache = c }
}

// keys renders the batch's cache keys once for both uses: queries[i] is the
// structural fingerprint of the i-th query ("" when it has none), and batch
// is the key finished memos are held under, "" when some query has no
// fingerprint. Names and fingerprints are length-prefixed, so distinct
// batches never render alike. A nil cache renders nothing: every key is "".
func (c *BuildCache) keys(batch *logical.Batch, cfg *buildConfig) (queries []string, batchKey string) {
	queries = make([]string, len(batch.Queries))
	if c == nil {
		return queries, ""
	}
	all, size := true, 0
	for i, q := range batch.Queries {
		k, ok := QueryFingerprint(q)
		if !ok {
			all = false
			continue
		}
		queries[i] = k
		size += len(q.Name) + len(k) + 16
	}
	if !all {
		return queries, ""
	}
	var sb strings.Builder
	sb.Grow(size + 2)
	sb.WriteByte(ablationFlag(cfg.noSelectSubsumption))
	sb.WriteByte(ablationFlag(cfg.noAggSubsumption))
	for i, q := range batch.Queries {
		sb.WriteString(strconv.Itoa(len(q.Name)))
		sb.WriteByte(':')
		sb.WriteString(q.Name)
		sb.WriteString(strconv.Itoa(len(queries[i])))
		sb.WriteByte(':')
		sb.WriteString(queries[i])
	}
	return queries, sb.String()
}

func ablationFlag(off bool) byte {
	if off {
		return '-'
	}
	return '+'
}

// get returns the memo held under a batch key, if it was built against
// this catalog and cost model, and counts the hit.
func (c *BuildCache) get(key string, cat *catalog.Catalog, model cost.Model, queries int) *Memo {
	if key == "" {
		return nil
	}
	c.mu.Lock()
	h := c.held[key]
	if h == nil || h.m.Cat != cat || h.m.Model != model {
		c.mu.Unlock()
		return nil
	}
	c.clock++
	h.stamp = c.clock
	c.mu.Unlock()
	c.batchHits.Add(1)
	c.hits.Add(int64(queries))
	return h.m
}

// hold counts a finished construction and, when the batch has a key, keeps
// the memo under it, dropping least recently used memos past heldNodeCap.
func (c *BuildCache) hold(key string, m *Memo) {
	if c == nil {
		return
	}
	c.batchMisses.Add(1)
	if key == "" || m.NumExprs() > heldNodeCap {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old := c.held[key]; old != nil {
		c.nodes -= old.m.NumExprs()
	}
	c.clock++
	c.held[key] = &heldMemo{m: m, stamp: c.clock}
	c.nodes += m.NumExprs()
	for c.nodes > heldNodeCap {
		var victim string
		var oldest uint64
		for k, h := range c.held {
			if victim == "" || h.stamp < oldest {
				victim, oldest = k, h.stamp
			}
		}
		c.nodes -= c.held[victim].m.NumExprs()
		delete(c.held, victim)
	}
}

// validate is Query.Validate behind the cache: a query with a fingerprint
// is validated once per key. Queries without one, and every query when c is
// nil, are validated each time and touch no counter; a query that fails
// validation is not recorded.
func (c *BuildCache) validate(cat *catalog.Catalog, q *logical.Query, key string) error {
	if c == nil || key == "" {
		return q.Validate(cat)
	}
	c.mu.Lock()
	_, hit := c.validated[key]
	c.mu.Unlock()
	if hit {
		c.hits.Add(1)
		return nil
	}
	if err := q.Validate(cat); err != nil {
		return err
	}
	c.store(key)
	c.misses.Add(1)
	return nil
}

func (c *BuildCache) store(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.validated[key]; ok {
		return
	}
	if len(c.order) < c.max {
		c.order = append(c.order, key)
	} else {
		delete(c.validated, c.order[c.next])
		c.order[c.next] = key
		c.next = (c.next + 1) % c.max
	}
	c.validated[key] = struct{}{}
}

// QueryFingerprint renders the canonical structural fingerprint of a
// query — the same collision-free key BuildCache records validated
// queries under — or ok=false when the query is not fingerprintable
// (derived sources, >64 sources). Two queries with equal fingerprints
// build identical memo sub-DAGs against the same catalog; the serving
// layer's batch coalescer relies on exactly that to deduplicate
// structurally identical member requests before a shared run.
func QueryFingerprint(q *logical.Query) (string, bool) {
	if q == nil {
		return "", false
	}
	return blockKey(q.Root)
}

// blockKey renders the canonical structural fingerprint of a single-block
// query, or ok=false when the block is not fingerprintable (derived
// sources, >64 sources). Two blocks with equal keys expand identically:
// the key covers sources (alias, table, pushed selection), join conditions
// in declaration order, and the aggregate spec.
func blockKey(b *logical.Block) (string, bool) {
	if b == nil || len(b.Sources) == 0 || len(b.Sources) > 64 {
		return "", false
	}
	var sb strings.Builder
	sb.WriteString("v1")
	for _, src := range b.Sources {
		if !src.Base() {
			return "", false
		}
		sb.WriteString("|s;")
		sb.WriteString(src.Alias)
		sb.WriteByte(';')
		sb.WriteString(src.Table)
		sb.WriteByte(';')
		sb.WriteString(b.SelectFor(src.Alias).Fingerprint())
	}
	for _, j := range b.Joins {
		sb.WriteString("|j;")
		sb.WriteString(j.Left.String())
		sb.WriteByte(';')
		sb.WriteString(j.Right.String())
	}
	if b.Agg != nil {
		sb.WriteString("|a;")
		sb.WriteString(b.Agg.Fingerprint())
	}
	return sb.String(), true
}
