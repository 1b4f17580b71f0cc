package memo

import (
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/logical"
)

// BuildCache remembers, across Build calls, which single-block queries
// have already validated against the catalog, keyed by their canonical
// structural fingerprint (blockKey). A query whose key is present skips
// Query.Validate — an equal key means an identical query that validated
// against the same catalog before — and is then expanded by buildBlock like
// any other, so results are bit-identical with and without a cache. The
// hit/miss counters are the session's measure of how repetitive its
// traffic is (SessionStats.RecipeHits/RecipeMisses).
//
// A BuildCache must only be shared across builds against one catalog (the
// owner is repro.Session, which fixes the catalog); it is safe for
// concurrent use.
type BuildCache struct {
	mu        sync.Mutex
	validated map[string]struct{}
	order     []string // insertion ring for FIFO eviction
	next      int
	max       int

	hits   atomic.Int64
	misses atomic.Int64
}

// buildCacheCap bounds the key set; beyond it the oldest keys are evicted
// FIFO. Eviction only costs a later re-validation, never a result.
const buildCacheCap = 4096

// NewBuildCache returns an empty cache.
func NewBuildCache() *BuildCache {
	return &BuildCache{validated: map[string]struct{}{}, max: buildCacheCap}
}

// Stats reports how many fingerprintable per-query builds found their
// structural key already validated versus validated and recorded it.
func (c *BuildCache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// WithBuildCache attaches a validated-structure cache to the build:
// fingerprintable queries (single-block, base sources only) that repeat
// an earlier one skip validation. Results are bit-identical with and
// without a cache.
func WithBuildCache(c *BuildCache) Option {
	return func(cfg *buildConfig) { cfg.cache = c }
}

// validate is Query.Validate behind the cache: a fingerprintable query is
// validated once per structural key. Queries that are not fingerprintable,
// and every query when c is nil, are validated each time and touch no
// counter; a query that fails validation is not recorded.
func (c *BuildCache) validate(cat *catalog.Catalog, q *logical.Query) error {
	if c == nil {
		return q.Validate(cat)
	}
	key, ok := blockKey(q.Root)
	if !ok {
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
