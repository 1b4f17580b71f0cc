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

// BuildCache is the table of finished memos a repeated batch is answered
// from, across Build calls against one catalog.
//
// Finished memos are held under a batch key — every query's name and
// canonical structural fingerprint (blockKey) in batch order, plus the two
// rule-ablation flags: everything Build reads — so an equal key means an
// identical DAG, and a hit returns the very object the one constructor
// (buildBlock) produced, with whatever its users compiled onto it
// (Memo.Compiled). A batch with a query that is not fingerprintable (derived
// sources) is built every time. Held memos are bounded by heldNodeCap
// operator nodes, least recently used out. A hit is checked against the
// call's catalog and cost model, so a cache wrongly shared across catalogs
// rebuilds instead of answering with another catalog's DAG. A batch that is
// built validates every one of its queries; a hit skips validation with the
// build. Either way results are bit-identical with and without a cache.
//
// The counters say how often the build was skipped, per batch
// (CompiledHits/CompiledMisses) and weighted by the batches' query counts
// (SessionStats.RecipeHits/RecipeMisses).
//
// A BuildCache must only be shared across builds against one catalog (the
// owner is repro.Session, which fixes the catalog); it is safe for
// concurrent use. Two concurrent builds of one new batch both miss and both
// build — the mutex is never held across construction — and the later one
// replaces the earlier.
type BuildCache struct {
	mu    sync.Mutex
	held  map[string]*heldMemo
	clock uint64 // use clock behind heldMemo.stamp
	nodes int    // Σ NumExprs over held

	hits, misses           atomic.Int64 // per successful Build
	queryHits, queryMisses atomic.Int64 // the same, times the batch's queries
}

// heldMemo is one finished memo with the clock reading of its last use.
type heldMemo struct {
	m     *Memo
	stamp uint64
}

// heldNodeCap bounds the operator nodes (Σ NumExprs) of the memos a
// BuildCache holds. A held node costs 1.2–1.9 kB of heap — the memo's
// groups, operators and property maps plus the search space the physical
// layer compiles onto it (1.95 kB on the benchmark generator's 16-query
// σ = 0.25 batches, 1.56 kB at 32 queries, 1.20 kB at 64;
// physical.TestHeldBytesPerNode guards 3 kB) — so a full cache is ≈ 45 MB
// at the 32-query density, what the session's cost cache holds at its own
// bound: the bytes are the whole reason for the number. Least-recently-used
// eviction over a working set that cycles is all or nothing, and the far
// side of the bound is unmeasured: the benchmark's largest per-session
// cycle (24 batches of 32 queries, 25.9–26.8 k nodes) fits with ≈ 7 % to
// spare. A memo larger than the bound is not held at all.
const heldNodeCap = 28 << 10

// NewBuildCache returns an empty cache.
func NewBuildCache() *BuildCache {
	return &BuildCache{held: map[string]*heldMemo{}}
}

// Stats reports how many queries came in batches answered from a held memo
// versus in batches that were built.
func (c *BuildCache) Stats() (hits, misses int64) {
	return c.queryHits.Load(), c.queryMisses.Load()
}

// Compiled reports how many Builds returned a held memo versus constructed
// one, and the operator nodes currently held.
func (c *BuildCache) Compiled() (hits, misses int64, nodes int) {
	c.mu.Lock()
	nodes = c.nodes
	c.mu.Unlock()
	return c.hits.Load(), c.misses.Load(), nodes
}

// Drop releases every held memo (and with it whatever was compiled onto
// it).
func (c *BuildCache) Drop() {
	c.mu.Lock()
	c.held = map[string]*heldMemo{}
	c.nodes = 0
	c.mu.Unlock()
}

// WithBuildCache attaches a cache to the build: a batch of fingerprintable
// queries (single-block, base sources only) that repeats an earlier one
// gets that build's memo back. Results are bit-identical with and without
// a cache. The returned memo may be shared with other callers: treat it as
// read-only.
func WithBuildCache(c *BuildCache) Option {
	return func(cfg *buildConfig) { cfg.cache = c }
}

// key renders the key finished memos of the batch are held under: the two
// rule-ablation flags and BatchKey; "" when some query has no fingerprint
// (or c is nil).
func (c *BuildCache) key(batch *logical.Batch, cfg *buildConfig) string {
	if c == nil {
		return ""
	}
	flags := string(ablationFlag(cfg.noSelectSubsumption)) + string(ablationFlag(cfg.noAggSubsumption))
	k, _ := batchKey(batch, flags)
	return k
}

// BatchKey renders what identifies a batch to the optimizer: each query's
// name and canonical structural fingerprint (blockKey), length-prefixed, in
// batch order — so distinct batches never render alike, and equal keys
// build identical DAGs against one catalog. ok is false when some query is
// not fingerprintable (derived sources, > 64 sources) or the batch is nil.
// BuildCache holds memos under it; the serving layer's batch coalescer
// deduplicates member requests by it.
func BatchKey(batch *logical.Batch) (string, bool) {
	return batchKey(batch, "")
}

// batchKey renders prefix and then BatchKey, into one allocation; "" when
// BatchKey has none.
func batchKey(batch *logical.Batch, prefix string) (string, bool) {
	if batch == nil {
		return "", false
	}
	fps := make([]string, len(batch.Queries))
	size := len(prefix)
	for i, q := range batch.Queries {
		if q == nil {
			return "", false
		}
		fp, ok := blockKey(q.Root)
		if !ok {
			return "", false
		}
		fps[i] = fp
		size += len(q.Name) + len(fp) + 16
	}
	var sb strings.Builder
	sb.Grow(size)
	sb.WriteString(prefix)
	for i, q := range batch.Queries {
		sb.WriteString(strconv.Itoa(len(q.Name)))
		sb.WriteByte(':')
		sb.WriteString(q.Name)
		sb.WriteString(strconv.Itoa(len(fps[i])))
		sb.WriteByte(':')
		sb.WriteString(fps[i])
	}
	return sb.String(), true
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
	c.hits.Add(1)
	c.queryHits.Add(int64(queries))
	return h.m
}

// hold counts a finished construction and, when the batch has a key, keeps
// the memo under it, dropping least recently used memos past heldNodeCap.
func (c *BuildCache) hold(key string, m *Memo) {
	if c == nil {
		return
	}
	c.misses.Add(1)
	c.queryMisses.Add(int64(len(m.QueryRoots)))
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
