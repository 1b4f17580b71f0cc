// Package physical implements the physical plan search over the logical
// AND-OR DAG (the PQDAG of the Volcano framework): physical properties
// (sort orders), operator implementations (relation scan, indexed
// selection, nested-loop join, merge join, sort enforcer, sort-based
// aggregation — the paper's operator set), and the central
// bestCost(Q, S) oracle that the MQO algorithms treat as a black box.
//
// bestCost(Q, S) is the cost of the optimal consolidated plan in which
// every equivalence node of S is computed once, written to disk, and read
// back by any consumer for which that is cheaper than recomputation:
//
//	bc(S) = Σ_{s∈S} (computeCost(s) + matWriteCost(s)) + Σ_q useCost(root_q)
//	useCost(g) = min(computeCost(g), matReadCost(g) [+ sort enforcement])  if g ∈ S
//
// The search memoizes on (group, required order), and carries what it
// learned from one call to the next at two levels — the incremental
// recomputation optimization of Section 5.1: adding one node to S
// invalidates only the costs of its ancestors. The memo itself outlives the
// call: an evaluation re-prices only the groups above the nodes its set
// differs from the previous one's in. Under it a cross-call cache is keyed
// by the materialization set restricted to the shareable nodes below each
// group, so a re-priced group whose own descendants did not change is a
// lookup.
//
// # Hot-path representation
//
// The oracle is allocation-free. The first searcher over a memo compiles it
// into immutable lookup structures — the compiled search space, which stays
// on the memo (memo.Memo.Compiled) for every later searcher over it:
//
//   - an order registry interning every sort order that can ever be
//     required or delivered (clustered-scan orders, index orders, merge-join
//     orders, group-by orders) into small integer ids, with a precomputed
//     "satisfies" matrix, so order handling is integer indexing instead of
//     string keys;
//   - per-group candidate templates: each physical implementation choice is
//     flattened into {precomputed local cost, child group ids, child order
//     ids, delivered order id}, enumerated in exactly the order the
//     candidate generator defines (ties in the strict-< minimum therefore
//     resolve identically to a naive enumeration);
//   - per-group cost-model constants (blocks, sort/read/write costs), DAG
//     depths and shareable-descendant bitsets, and their inverse: for each
//     shareable node the list of groups above it, and the shareable nodes in
//     dependency (depth) order;
//   - the cell index (cellIndex, fillCells): a number for every (group,
//     order) pair an evaluation can ever ask for, and on every template the
//     numbers of its children.
//
// Materialization sets are Bitsets indexed by shareable-node slot (see
// memo.ShareIndex); NodeSet wraps one with the index needed to translate
// group ids.
//
// A cell is a (group, order) pair in the static demand closure. What is
// asked of a group follows from price's rules alone, whatever the
// materialization set, the operator flags or the caches — those only decide
// which part of the closure one evaluation reaches: the entry points ask
// use(root, any) of every query root and compute(g, any) of every
// materialized group; use(g, o) asks compute(g, o), and stored(g) what
// compute(g, any) asks; compute(g, o) asks, of each template whose delivered
// order satisfies o, use of its children in the template's fixed orders, of
// the order-preserving filter use(child, o), and — o being an order —
// compute(g, any) for the sort enforcer. Every order satisfies "any", so a
// group is asked for any order, for the fixed orders its parents' templates
// name, and for what a filter above it is asked. That is 2–4 % of groups ×
// orders (generator seed 1000, 16 / 32 / 64 / 256 queries: 620 / 1,555 /
// 4,734 / 52,285 pairs of 14,534 / 50,530 / 182,304 / 2,362,584 — exactly
// the keys a walk from nothing computes). Cells are numbered group by group,
// ascending by order id within a group, and the groups a chain of filters
// links share one order list (the union of their fixed demands): a filter
// then forwards the k-th order of its list to the k-th cell of its child, a
// constant distance away (childReq.cell), with no load between the parent's
// cell and the child's — a per-template translation array is a dependent
// cache miss on every filter visit, two templates in three at 256 queries
// (ISSUE 24's prototype of it ran the 256-query tier in 6.7–7.0 s against
// 5.3–5.5 this way and 6.0–6.3 with sparse tables). Sharing pads the closure
// 2.0–2.6 × (1,210 / 3,546 / 11,770 / 134,777 cells), which is still
// 12–17.5 × fewer than groups × orders, and everything per (group, order)
// that a worker, a run's L1 or a SharedCache namespace holds is sized by it:
// 32 B a cell in a worker and 16 in the L1, 0.56 MB a single-worker run at 64
// queries and 6.5 MB at 256, where groups × orders were 8.5 and 111.
//
// The memo is a pair of flat arrays of stamped cells — one for use costs, one
// for compute costs — and one stamp per group: a cell is live while its stamp
// is its group's, so handing a group a new stamp (worker.stamp: no table
// holds it yet) drops every cell of the group at once, and there is no
// second per-(group, order) table. A worker
// keeps a base set, the set its live cells are priced for. To evaluate a set
// T it re-stamps the groups above the nodes of T △ base (space.above) and
// prices them through useCost / compute / the caches below; every other
// group's cells — on the generator's DAGs five sixths of them, for a T one
// node from the base — are read in place, with no mask hash, no cache probe
// and no template loop. What the evaluation overwrote in the re-stamped
// groups (their stamps, mask hashes, stored orders, cells) goes on an undo
// log and is put back before the next evaluation, so a round of S ∪ {x}
// over many x pays for the groups above x, once each, and nothing else.
// bestCostOn still adds every materialized group's and every root's term, in
// one fixed order, so a total is the bit a walk from nothing produces.
//
// The invariant: a cell whose stamp matches its group's holds the value for
// the worker's current set; an evaluation may leave a matching stamp only on
// a cell whose value holds for the base. (A cell written in a group that was
// not re-stamped qualifies: no changed node lies below it, so its value is
// the same under T and under the base.) Under it a lost undo record, a
// dropped base or an eviction can only cost a recomputation, never change a
// cost.
//
// The base follows the caller without being told, by one rule
// (setBatchBase): a batch (BestCostBatchCtx) keeps the current base while
// every one of its sets is within one node of it and otherwise moves to the
// batch's bitwise majority — S for a greedy round of S ∪ {x}, U for
// DecomposeStar's U ∖ {e}; a worker follows by re-stamping only the groups
// above old base △ new base. An evaluation on its own (BestCost, BestPlan,
// CostBreakdown) is a batch of one: it keeps the base while it is within one
// node of it and otherwise becomes the base. A walk from nothing is the same
// code with no base to start from: every group is re-stamped. That is also
// what Incremental = false means — nothing is reused across calls: no base
// is kept, no cache read or written — and what a SharedCache.Invalidate and
// a worker changing hands (bind) come down to: they drop the base together
// with the L1.
//
// # Cross-call caching
//
// The Section 5.1 incremental cache is keyed by the pure value
// {group, order id, compute, mask hash}. Every cached cost is a pure
// function of that key, which is the load-bearing invariant of the whole
// hierarchy: a hit, a miss, an eviction or a lost publish can only ever
// change how often a value is recomputed, never what it is — so results
// are bit-identical under any cache behavior, and the oracle-call count
// (bc_calls) is deterministic because it is counted at the oracle entry
// point, above every cache level.
//
// A use-cost key exists only for a group in the set; outside it the compute
// key answers. The mask hashes the set restricted to the shareable nodes at
// or below the group, its own slot included (memo.ShareIndex.Descendants),
// so it already says whether the group is materialized, and when it is not
// useCost(g) is computeCost(g) under the same mask, bit for bit: useCostMiss
// returns compute's value and stores nothing of its own. Only a materialized
// group probes and stores a use-cost key, the lesser of its compute cost and
// reading its copy. A group with no shareable slot — most groups of a DAG —
// never has one, and a snapshot's use-cost entry for such a group is dropped
// on import like a key with no cell. Keeping a second copy under a use-cost
// key made 190.6 k of a cold 64-query run's 239 k use-cost stores and half
// of its 9.1 k L1 buckets (generator seeds 1000–1003, one worker).
//
// The hierarchy a lookup walks under the memo, fastest first:
//
//  1. Flat L1, one per run and shared by the workers of a batch: per-cell
//     open-addressed probe arrays (l1Bucket, lazily allocated) of inline
//     (mask, value) pairs with a 1-byte tag per position and an explicit
//     occupancy bitmap, so no mask value is reserved as "empty". Use-cost
//     and compute-cost keys share one table: the bucket of a cell and kind
//     sits at index 2*cell+kind, and a use-cost bucket is made only for a
//     cell of a group with a shareable slot (the cellcheck build asserts
//     it). Memory is bounded by the fill bound, as on
//     one worker: past it a store evicts at its home, but only while no
//     other worker can be reading the bucket (worker.store says when), so
//     the L1 holds at most one bucket per cell and kind. resetL1 lets go of
//     the whole table in O(1).
//  2. SharedCache L2: the optionally attached cross-searcher tier, one
//     table per namespace (structural fingerprint + operator flags) with
//     the L1's own geometry: slot 2*cell+kind holds an atomically loaded
//     pointer to a short chain of l1Buckets that are immutable once
//     published. Reads are lock-free: a worker resolves its namespace's
//     table once per oracle call (nil when nothing was published under
//     it, so a cold run never probes the L2) and on an L1 miss loads the
//     slot and probes the chain — no lock, no hash. There is no
//     promotion: an L2 hit is not copied into the L1, so the L1 holds
//     only what this run computed. The hot path never writes the L2 —
//     fresh values go only to the L1 and PublishCache moves them over
//     (see SharedCache for how, and for the capacity bound).
//
// The tables of both levels are per cell; the keys are not. A cacheKey, a
// CacheSnapshot entry and the structural fingerprint name (group, order), as
// they did when tables were groups × orders: a namespace table keeps the
// cell index of the searcher that shaped it and maps through it at its
// edges — an imported key is looked up (and dropped when it has no cell, or
// is a use-cost key of a group with no shareable slot: no searcher of the
// namespace can ask for either), an export walks the cells, which
// ascend in the snapshot's canonical (group, order) order. Equal search
// spaces compile to equal indexes, so a table shaped by one searcher serves
// every other of its namespace.
//
// repro.Session owns one SharedCache per session, so identical batches
// start warm; entries are namespaced by the searcher's Fingerprint — the
// structural fingerprint and the operator flags — so searchers with other
// flags never read each other's costs.
//
// # Concurrency contract
//
// The compiled search space is immutable and belongs to the memo, not to a
// searcher: any number of searchers over one memo — a session's concurrent
// or repeated runs of a batch it holds compiled — read the same arrays.
// What a run mutates lives in the Searcher (flags, counters, the L1) and in
// its workers, the per-evaluation contexts (the memo with its base and undo
// log, stat counters). Sequential entry points (BestCost, BestPlan,
// CostBreakdown) share worker 0 and are not safe for concurrent
// use, while BestCostBatchCtx evaluates many materialization sets
// concurrently. A worker's memo and base are private to it; the batch base
// (Searcher.base) is written by BestCostBatchCtx before it starts the
// batch's goroutines, which only read it.
//
// The workers of a batch share the run's L1: any of them reads, with no lock,
// what any other stored, so a key one worker computed is a hit for the rest.
// That is safe because, while a batch is fanned out, a bucket position is
// written once and published in order (l1Bucket.share): a store claims a
// free position with a compare-and-swap on the bucket's held word, writes
// the tag and the entry, and only then sets the position's bit in occ with
// an atomic or — the word a reader loads before it reads any entry. A store
// that finds a full bucket waits in the spill log until the batch is over
// (settle) or, once that is full, is dropped; it never overwrites a live
// position under a reader. Two workers that miss the same key at once both
// compute it, and both values are the same bits. What moves a whole table —
// resetL1 (syncShared after an Invalidate) and PublishCache —
// runs only between batches.
//
// How many workers a batch runs on is the searcher's decision, not a
// caller's: GOMAXPROCS, capped by the batch, and one while the evaluations
// before the batch read caches rather than computed keys (fanOutKeys). The
// crossover it follows is a property of the run, which a caller does not
// see: a second worker loses on every warm run and on a cold 16-query one,
// breaks even on a cold 32-query run and wins on a cold 64-query one
// (numbers at fanOutKeys). It does not relearn what its neighbour holds —
// computed_keys is flat in the worker count — but waking it and pricing the
// groups its own memo lacks pays only where computing keys dominates.
//
// Workers are borrowed, under one rule for every entry point: a searcher
// takes a worker the first time an evaluation needs one — from the attached
// SharedCache's free list when it has one large enough, rebound to this DAG
// (worker.bind), else newly allocated — and keeps it, with what it learns,
// until PublishCache hands the learning and then the emptied workers to the
// cache. So an owner evaluates first and publishes last (repro.Session
// attributes a shared run before its publish); a worker is never on the
// list and in a searcher at once, and a run stopped by a panic, which never
// publishes, returns none. Without a cache the workers simply stay.
//
// Costs are pure functions of (memo, set), so batch results are
// bit-identical to sequential evaluation regardless of scheduling — and
// SharedCache reads/publishes never change a value, only how often it is
// recomputed. A searcher's operator flags (ExtendedOps, Incremental) are set
// before its first evaluation and never changed (the cellcheck build panics
// if they are): other flags are another searcher.
package physical

import (
	"context"
	"math"
	"math/bits"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/expr"
	"repro/internal/faultinject"
	"repro/internal/memo"
)

// Order is a required or delivered sort order: a sequence of columns.
// nil/empty means "any order".
type Order []expr.Col

// Key renders the order canonically for map keys.
func (o Order) Key() string {
	if len(o) == 0 {
		return ""
	}
	parts := make([]string, len(o))
	for i, c := range o {
		parts[i] = c.String()
	}
	return strings.Join(parts, ",")
}

// Satisfies reports whether a stream sorted by o satisfies requirement
// req, i.e. req is a prefix of o.
func (o Order) Satisfies(req Order) bool {
	if len(req) > len(o) {
		return false
	}
	for i := range req {
		if o[i] != req[i] {
			return false
		}
	}
	return true
}

// Empty reports whether the order imposes no requirement.
func (o Order) Empty() bool { return len(o) == 0 }

// ordID is an interned order: an index into the searcher's order registry.
// ordID 0 is the empty ("any") order.
type ordID int32

// NodeSet is a materialization set: a bitset over the shareable-node slots
// of the searcher's ShareIndex. The zero value is the empty set; non-empty
// sets are created with Searcher.NewNodeSet.
type NodeSet struct {
	si   *memo.ShareIndex
	bits memo.Bitset
}

// NewNodeSet returns a materialization set over this searcher's shareable
// nodes containing the given groups.
func (s *Searcher) NewNodeSet(ids ...memo.GroupID) NodeSet {
	ns := NodeSet{si: s.SI, bits: s.SI.NewMatSet()}
	for _, id := range ids {
		ns.Add(id)
	}
	return ns
}

// Add inserts a shareable group into the set; it panics if the group is
// not shareable (non-shareable nodes are never worth materializing and
// have no bitset slot). The zero-value NodeSet carries no share index and
// cannot grow — build growable sets with NewNodeSet.
func (ns NodeSet) Add(id memo.GroupID) {
	if ns.si == nil {
		panic("physical: Add on a zero-value NodeSet; create sets with NewNodeSet")
	}
	if !ns.si.Set(ns.bits, id) {
		panic("physical: NodeSet.Add of non-shareable group")
	}
}

// With returns a copy of the set with the extra node added.
func (ns NodeSet) With(id memo.GroupID) NodeSet {
	out := NodeSet{si: ns.si, bits: ns.bits.Clone()}
	out.Add(id)
	return out
}

// Clone returns a copy of the set.
func (ns NodeSet) Clone() NodeSet {
	return NodeSet{si: ns.si, bits: ns.bits.Clone()}
}

// Has reports membership.
func (ns NodeSet) Has(id memo.GroupID) bool {
	if ns.si == nil {
		return false
	}
	return ns.si.Has(ns.bits, id)
}

// Len returns the set size.
func (ns NodeSet) Len() int { return ns.bits.Count() }

// Empty reports whether the set is empty.
func (ns NodeSet) Empty() bool { return ns.bits.Count() == 0 }

// Groups returns the member group ids in ascending order.
func (ns NodeSet) Groups() []memo.GroupID {
	if ns.si == nil {
		return nil
	}
	return ns.si.Groups(ns.bits)
}

// space is the compiled search space of one memo: everything the oracle's
// hot path reads that is a pure function of the finished DAG. It is
// immutable once prepare returns and rides on its memo (memo.Memo.Compiled),
// so every searcher over one memo — a session's concurrent or repeated runs
// of a batch its BuildCache reuses — shares one.
type space struct {
	M  *memo.Memo
	SI *memo.ShareIndex

	orders    []Order   // order registry; orders[0] = nil
	sat       [][]bool  // sat[have][want] = orders[have].Satisfies(orders[want])
	tmpls     [][]tmpl  // candidate templates per group
	depths    []int32   // DAG height per group (leaves are 0)
	blocksArr []float64 // output blocks per group
	sortArr   []float64 // SortCost per group
	readArr   []float64 // MaterializeReadCost per group
	writeArr  []float64 // MaterializeWriteCost per group
	numOrds   int       // len(orders): what the registry and sat are sized by
	// cells indexes every per-(group, order) table of a worker and of a
	// SharedCache namespace (cellIndex, fillCells).
	cells cellIndex
	// rootMask[slot] is the bitset of query roots whose cone contains the
	// shareable node at slot; words are ceil(len(QueryRoots)/64).
	rootMask  [][]uint64
	rootWords int
	// above[slot] lists every group whose cone contains the shareable node
	// at slot (the node's group included), ascending: the groups whose costs
	// can change when the node enters or leaves the materialization set.
	above [][]int32
	// depthOrder lists the shareable slots by (DAG depth, group id): the
	// order in which materializations depend on each other.
	depthOrder []int32
	structSum  uint64 // structural fingerprint of the compiled search space

	ordIdx map[string]ordID // construction only
}

// Searcher owns the per-run search state — flags, workers, counters — over
// the compiled search space of one combined DAG. See the package comment
// for the concurrency contract.
type Searcher struct {
	// space is the memo's compiled search space, shared read-only with every
	// other searcher over the same memo. It brings the exported fields M
	// (the memo) and SI (its shareable-node index).
	space

	// Incremental reports whether anything is reused across calls (the
	// Section 5.1 optimization): the memo's base and the cross-call cache.
	// Disabled only for ablation benchmarks. Like ExtendedOps it is set
	// before the searcher's first evaluation and never changed after it.
	Incremental bool

	// ExtendedOps adds hash join and hash aggregation to the paper's
	// operator set (relation scan, indexed selection, NLJ, merge join,
	// sort, sort-based aggregation). Off by default: the experiments use
	// the paper's rule set; the extended-operator ablation turns it on.
	ExtendedOps bool

	// workers are the evaluation contexts this searcher has taken so far
	// (worker), in the order it asked for them.
	workers []*worker
	shared  *SharedCache // cross-searcher L2 cache

	// l1 is the run's cross-call cache, which every worker of a batch reads
	// and writes; worker makes it, resetL1 and PublishCache let go of it.
	// l2 is the table of the attached SharedCache's namespace (Fingerprint)
	// as resolved at generation sharedGen, nil when nothing is published
	// under it, and sharedEpoch the cache's invalidation epoch the L1 was
	// filled under (syncShared).
	l1          l1Table
	fanned      bool       // a batch's workers run on more than one goroutine
	check       batchCheck // what the cellcheck build asserts the batch and the flags against
	sharedGen   uint64
	sharedEpoch uint64
	l2          l1Table

	// base is the set the evaluations of a batch are priced against — the
	// batch's workers read it, BestCostBatchCtx writes it before it starts
	// them (setBatchBase) — and tally that rule's per-slot scratch.
	// batchMark is the Stats reading at the start of the last batch, from
	// which the next one decides whether fanning out pays (fanOutKeys).
	base      memo.Bitset
	tally     []int32
	batchMark Stats

	// fault is the first panic a batch worker recovered, kept until the
	// owning run collects it with TakeFault. Batches run one at a time per
	// searcher (the oracle is sequential between rounds), so a plain field
	// read after the batch's WaitGroup is race-free.
	fault *faultinject.PanicError

	// Stats are the work counters, cumulative over the searcher's life;
	// workers count privately and fold in after each evaluation.
	Stats
}

// Stats counts the work of a searcher (or, between two flushes, of one
// worker).
type Stats struct {
	BCCalls      int // bestCost invocations
	CacheHits    int // lookups served by the run's L1
	SharedHits   int // lookups served by the SharedCache (L2)
	ComputedKey  int // fresh (group, order, mask) computations
	ExtractCalls int // plan-extraction node resolutions (BestPlan)
}

func (a *Stats) add(b Stats) {
	a.BCCalls += b.BCCalls
	a.CacheHits += b.CacheHits
	a.SharedHits += b.SharedHits
	a.ComputedKey += b.ComputedKey
	a.ExtractCalls += b.ExtractCalls
}

// Sub returns a − b: the work done between the reading b and the reading a.
func (a Stats) Sub(b Stats) Stats {
	return Stats{a.BCCalls - b.BCCalls, a.CacheHits - b.CacheHits, a.SharedHits - b.SharedHits,
		a.ComputedKey - b.ComputedKey, a.ExtractCalls - b.ExtractCalls}
}

// NewSearcher returns a searcher over the given memo with the incremental
// cache enabled, the paper's operator set, and no SharedCache
// attached: the run's L1 is its only cross-call cache. A longer-lived owner
// attaches its cache with AttachSharedCache (repro.Session does). The search
// space is compiled by the first searcher over a memo and kept on it, so on
// a memo a BuildCache handed back NewSearcher is a struct literal; it
// allocates no worker — the first evaluation takes one.
func NewSearcher(m *memo.Memo) *Searcher {
	sp := m.Compiled(func() any { return compile(m) }).(*space)
	return &Searcher{space: *sp, Incremental: true}
}

// compile builds the memo's search space.
func compile(m *memo.Memo) *space {
	sp := &space{M: m, SI: m.NewShareIndex()}
	sp.prepare()
	return sp
}

// cacheKey is a cross-call cache entry's key outside the tables — in a
// snapshot and in its canonical order: the (group, order) pair, which of its
// two costs, and the mask hash of the set it was priced under. A use-cost key
// (compute false) exists only for a group in that set, which its mask covers
// (Descendants(g) holds g's slot); outside the set the group's use cost is
// its compute cost and the compute key answers (useCostMiss). So a group
// with no shareable slot has compute keys alone.
type cacheKey struct {
	g       memo.GroupID
	ord     ordID
	compute bool
	mask    uint64
}

// prepare compiles the memo into the immutable hot-path structures.
func (s *space) prepare() {
	n := s.M.NumGroups()
	s.depths = make([]int32, n)
	s.blocksArr = make([]float64, n)
	s.sortArr = make([]float64, n)
	s.readArr = make([]float64, n)
	s.writeArr = make([]float64, n)
	s.ordIdx = map[string]ordID{"": 0}
	s.orders = []Order{nil}
	for i := 0; i < n; i++ {
		id := memo.GroupID(i)
		s.depths[i] = -1
		p := s.M.Group(id).Props
		b := s.M.Model.Blocks(p.Rows, p.Width)
		s.blocksArr[i] = b
		s.sortArr[i] = s.M.Model.SortCost(b)
		s.readArr[i] = s.M.Model.MaterializeReadCost(b)
		s.writeArr[i] = s.M.Model.MaterializeWriteCost(b)
	}
	for i := 0; i < n; i++ {
		s.fillDepth(memo.GroupID(i))
	}
	s.tmpls = make([][]tmpl, n)
	for i := 0; i < n; i++ {
		s.tmpls[i] = s.buildTemplates(memo.GroupID(i))
	}
	s.numOrds = len(s.orders)
	s.sat = make([][]bool, s.numOrds)
	for i := range s.sat {
		row := make([]bool, s.numOrds)
		for j := range row {
			row[j] = s.orders[i].Satisfies(s.orders[j])
		}
		s.sat[i] = row
	}
	s.fillCells()
	s.fillRootMasks()
	s.fillAbove()
	s.structSum = s.structHash()
	s.ordIdx = nil // registry is sealed
}

// fillRootMasks computes, for every shareable slot, the bitset of query
// roots whose cone contains it — the structural reach the dirty-candidate
// pruning tests against (SharesQueryRoot).
func (s *space) fillRootMasks() {
	s.rootWords = (len(s.M.QueryRoots) + 63) / 64
	s.rootMask = make([][]uint64, s.SI.Len())
	words := make([]uint64, s.SI.Len()*s.rootWords) // one backing array
	for i := range s.rootMask {
		s.rootMask[i] = words[i*s.rootWords : (i+1)*s.rootWords]
	}
	for ri, r := range s.M.QueryRoots {
		for wi, wv := range s.SI.Descendants(r) {
			for wv != 0 {
				slot := wi*64 + bits.TrailingZeros64(wv)
				wv &= wv - 1
				s.rootMask[slot][ri>>6] |= 1 << uint(ri&63)
			}
		}
	}
}

// fillAbove inverts the descendant bitsets into the per-slot ancestor lists
// (one backing array, sized by a counting pass) and sorts the shareable
// slots by depth.
func (s *space) fillAbove() {
	n, slots := s.M.NumGroups(), s.SI.Len()
	start := make([]int, slots+1)
	for g := 0; g < n; g++ {
		for wi, wv := range s.SI.Descendants(memo.GroupID(g)) {
			for ; wv != 0; wv &= wv - 1 {
				start[wi*64+bits.TrailingZeros64(wv)+1]++
			}
		}
	}
	for i := 0; i < slots; i++ {
		start[i+1] += start[i]
	}
	groups := make([]int32, start[slots])
	s.above = make([][]int32, slots)
	for i := range s.above {
		s.above[i] = groups[start[i]:start[i]:start[i+1]]
	}
	for g := 0; g < n; g++ {
		for wi, wv := range s.SI.Descendants(memo.GroupID(g)) {
			for ; wv != 0; wv &= wv - 1 {
				slot := wi*64 + bits.TrailingZeros64(wv)
				s.above[slot] = append(s.above[slot], int32(g))
			}
		}
	}
	s.depthOrder = make([]int32, slots)
	for i := range s.depthOrder {
		s.depthOrder[i] = int32(i)
	}
	// Slots ascend with group id, so a stable sort by depth is (depth, id).
	sort.SliceStable(s.depthOrder, func(i, j int) bool {
		return s.depths[s.SI.GroupAt(int(s.depthOrder[i]))] < s.depths[s.SI.GroupAt(int(s.depthOrder[j]))]
	})
}

// SharesQueryRoot reports whether some query root's cone contains both
// groups. When it does not, no consumer's cost path can ever see both
// nodes, so materializing one provably cannot change the other's marginal
// benefit — the exactness test behind the dirty-candidate lazy greedy
// (submod.InteractionFunction). Non-shareable groups conservatively report
// true. Safe for concurrent use after construction.
func (s *Searcher) SharesQueryRoot(a, b memo.GroupID) bool {
	sa, sb := s.SI.Pos(a), s.SI.Pos(b)
	if sa < 0 || sb < 0 {
		return true
	}
	ma, mb := s.rootMask[sa], s.rootMask[sb]
	for i := range ma {
		if ma[i]&mb[i] != 0 {
			return true
		}
	}
	return false
}

// intern registers an order and returns its id; construction-time only.
func (s *space) intern(o Order) ordID {
	k := o.Key()
	if id, ok := s.ordIdx[k]; ok {
		return id
	}
	id := ordID(len(s.orders))
	s.orders = append(s.orders, o)
	s.ordIdx[k] = id
	return id
}

func (s *space) fillDepth(g memo.GroupID) int32 {
	if s.depths[g] >= 0 {
		return s.depths[g]
	}
	s.depths[g] = 0
	var d int32
	for _, e := range s.M.Group(g).Exprs {
		for _, ch := range e.Children {
			if cd := s.fillDepth(ch) + 1; cd > d {
				d = cd
			}
		}
	}
	s.depths[g] = d
	return d
}

// l1BucketBits sizes the per-(group,order) flat L1 buckets: each bucket
// is a fixed-capacity power-of-two probe array of 1<<l1BucketBits
// (mask, value) pairs stored inline, so its occupancy fits one uint64
// bitmap word.
const l1BucketBits = 6

// l1BucketCap is the bucket capacity (entries per probe array).
const l1BucketCap = 1 << l1BucketBits

// l1MaxFill is the fill bound of a bucket (3/4 load): below it a store
// claims the first empty position of its probe run, at or past it a store
// writes at its home once no other worker can be reading the bucket
// (l1Bucket.evict). Occupancy is not capped at the bound — claimed empty
// homes let it creep up to the full capacity, where a probe for an absent
// key walks all l1BucketCap positions (lookup takes the run length from the
// occupancy word, so it still terminates).
const l1MaxFill = l1BucketCap * 3 / 4

// epVal is one memo cell: a cost and the stamp its group carried when the
// cost was written, adjacent in memory so a memo hit touches one cache line.
// The cell is live while that is still the group's stamp (groupState.ep).
type epVal struct {
	ep  uint32
	val float64
}

// groupState is what a worker knows about one group under its current set:
// the stamp its live memo cells carry, and — each live while its own stamp
// equals ep — the Section 5.1 mask hash and the order the group's
// materialization is stored in.
type groupState struct {
	ep        uint32
	mhEp      uint32
	storedEp  uint32
	storedOrd ordID
	mhVal     uint64
}

// groupUndo and cellUndo are the undo log of one evaluation: what a group
// re-stamped for it, and a cell of such a group it overwrote, held before.
type groupUndo struct {
	g   int32
	old groupState
}

type cellUndo struct {
	cell int32 // 2*cell + kind, the cell's L1 index
	old  epVal
}

// l1Entry is one inline (mask hash, cost) pair of a flat L1 bucket.
type l1Entry struct {
	mask uint64
	val  float64
}

// l1Bucket is the flat open-addressed cross-call cache of one (group,
// order) cell and cost kind. Occupancy is explicit — bit j of occ marks
// entries[j] live — so every 64-bit mask hash, including ^uint64(0),
// round-trips exactly. In a run's L1 the workers of a fanned-out batch read
// and store into one bucket at once, so a position is published in order:
// share claims it in held, writes its tag and entry, and only then sets its
// bit in occ; a reader loads occ before it reads a tag or an entry, so it
// reads only positions whose writes are done. A SharedCache table's buckets
// are never written once published; its table links the buckets of one cell
// and kind through next, which is nil in a run's L1. The 16-byte header
// keeps every entry inside one cache line; only a probe that misses a
// published bucket reads next.
type l1Bucket struct {
	occ     uint64 // live positions; atomic
	held    uint64 // claimed positions: occ and the stores in flight
	tags    [l1BucketCap]uint8
	entries [l1BucketCap]l1Entry
	next    *l1Bucket
}

// l1Table is a run's L1, or a SharedCache namespace's table: the bucket
// chain of (cell, kind) at slot 2*cell+kind.
type l1Table []atomic.Pointer[l1Bucket]

// l1Home is the probe start position for a mask hash: the top bucket
// bits of a Fibonacci remix (the mask is itself a hash; the remix keeps
// the home independent of which of its bits happen to vary in a bucket).
func l1Home(mask uint64) int {
	return int((mask * 0x9e3779b97f4a7c15) >> (64 - l1BucketBits))
}

// l1Tag is the 1-byte probe filter for a mask hash: the next 8 bits of
// the same remix below the home bits. During a probe the tag bytes —
// all of them in one cache line — are compared first, so the 16-byte
// entries are only loaded on a tag match (false positive rate 2^-8 per
// occupied position). Tags carry no occupancy information: occ alone
// decides liveness, so a stale tag is never read.
func l1Tag(mask uint64) uint8 {
	return uint8((mask * 0x9e3779b97f4a7c15) >> (56 - l1BucketBits))
}

// lookup probes for a mask with linear probing from its home position,
// stopping at the first empty position. The probe-run length is taken
// from the occupancy word up front (rotate the free bitmap so the home
// lands on bit 0; the first set bit is the first empty position), so
// the loop itself tests only tag bytes.
func (b *l1Bucket) lookup(mask uint64) (float64, bool) {
	h := l1Home(mask)
	d := bits.TrailingZeros64(bits.RotateLeft64(^atomic.LoadUint64(&b.occ), -h))
	tag := l1Tag(mask)
	for i := 0; i < d; i++ {
		j := (h + i) & (l1BucketCap - 1)
		if b.tags[j] == tag && b.entries[j].mask == mask {
			return b.entries[j].val, true
		}
	}
	return 0, false
}

// find probes the chain of buckets starting at b (nil is the empty chain).
func (b *l1Bucket) find(mask uint64) (float64, bool) {
	for ; b != nil; b = b.next {
		if v, ok := b.lookup(mask); ok {
			return v, true
		}
	}
	return 0, false
}

// claim writes a pair, below the fill bound, into the first position of its
// probe run that no store has claimed, marking it in held but not in occ: the
// caller publishes it (put, store). A mask already there is left as it is,
// its value being a pure function of the key (the cellcheck build asserts the
// bits agree). At the bound claim stores nothing and reports false. It runs
// where no other worker stores into the bucket; share is its concurrent
// counterpart.
func (b *l1Bucket) claim(mask uint64, v float64) bool {
	h := l1Home(mask)
	tag := l1Tag(mask)
	for i := 0; i < l1BucketCap; i++ {
		j := (h + i) & (l1BucketCap - 1)
		bit := uint64(1) << uint(j)
		if b.held&bit == 0 {
			if bits.OnesCount64(b.held) >= l1MaxFill {
				return false
			}
			if cellCheck {
				checkUnclaimed(b, j)
			}
			b.held |= bit
			b.tags[j] = tag
			b.entries[j] = l1Entry{mask: mask, val: v}
			return true
		}
		if b.tags[j] == tag && b.entries[j].mask == mask {
			if cellCheck {
				checkPure(mask, b.entries[j].val, v)
			}
			return true
		}
	}
	return false
}

// put stores and publishes a pair in a bucket no reader can reach yet — a
// SharedCache bucket before it is published, a new L1 one before it is
// installed — and reports false, storing nothing, at the fill bound.
func (b *l1Bucket) put(mask uint64, v float64) bool {
	ok := b.claim(mask, v)
	b.occ = b.held
	return ok
}

// store is what a store does in a bucket no other worker can be reading:
// it claims a position, or at the fill bound evicts, and publishes it.
func (b *l1Bucket) store(mask uint64, v float64) {
	if !b.claim(mask, v) {
		b.evict(mask, v)
	}
	b.occ = b.held
}

// share stores a pair while other workers of the batch may probe and store
// into the bucket. A mask already published is left as it is (its value is
// a pure function of the key; the cellcheck build asserts the bits agree).
// Else share claims the first position of its probe run that no store has
// claimed, with a compare-and-swap on held, writes the tag and the entry,
// and only then publishes the position with an atomic or on occ, the word a
// reader loads before it reads any entry; no position is written twice. At
// the fill bound it stores nothing and reports false.
func (b *l1Bucket) share(mask uint64, v float64) bool {
	// Full buckets, where most stores of a cold batch land, are not written
	// until the batch is over: the test comes first and reads a line no
	// worker is writing.
	if bits.OnesCount64(atomic.LoadUint64(&b.held)) >= l1MaxFill {
		return false
	}
	if have, ok := b.lookup(mask); ok {
		if cellCheck {
			checkPure(mask, have, v)
		}
		return true
	}
	h := l1Home(mask)
	for {
		held := atomic.LoadUint64(&b.held)
		if bits.OnesCount64(held) >= l1MaxFill {
			return false
		}
		j := (h + bits.TrailingZeros64(bits.RotateLeft64(^held, -h))) & (l1BucketCap - 1)
		if atomic.CompareAndSwapUint64(&b.held, held, held|1<<uint(j)) {
			if cellCheck {
				checkUnclaimed(b, j)
			}
			b.tags[j] = l1Tag(mask)
			b.entries[j] = l1Entry{mask: mask, val: v}
			atomic.OrUint64(&b.occ, 1<<uint(j))
			return true
		}
	}
}

// evict stores a pair claim could not take at its home position, whatever
// is there: it replaces the occupant, or claims the home if that is empty
// (which is how occupancy passes the fill bound, see l1MaxFill). The
// linear-probing invariant survives because the new key rests exactly at
// its own home; an evicted key simply misses from then on, falling back to
// the SharedCache L2 (if it was published) or to recomputation. Values are
// pure functions of their key, so eviction can never change a cost. evict
// overwrites a live position, so it runs only while no other worker can be
// reading the bucket; the writer publishes the position (store).
func (b *l1Bucket) evict(mask uint64, v float64) {
	h := l1Home(mask)
	b.held |= 1 << uint(h)
	b.tags[h] = l1Tag(mask)
	b.entries[h] = l1Entry{mask: mask, val: v}
}

// worker is one evaluation context: the memo and its per-call scratch; the
// cross-call caches are the searcher's. Sequential entry points use worker
// 0; BestCostBatchCtx uses one worker per goroutine. A worker belongs to
// one searcher at a time, but may outlive it: a searcher with a SharedCache
// attached takes its workers from the cache's free list and PublishCache
// gives them back, so the tables below are sized by capacity — a later
// searcher reslices them to its own DAG (bind) — and every stamp in them
// only ever grows.
type worker struct {
	s *Searcher // current owner; nil on the free list

	// The run's L1 and the SharedCache table it reads (Searcher.l1, l2),
	// as Searcher.worker last saw them: a lookup's first loads.
	l1, l2 l1Table

	// The memo (see "Hot-path representation"). clock is the last stamp
	// handed out: every stamp in the tables below is at most it, so a new
	// one matches nothing.
	clock    uint32
	bits     memo.Bitset    // current materialization set
	groups   []groupState   // per group
	useMemo  []epVal        // per cell: use cost
	compMemo []epVal        // per cell: compute cost
	matIDs   []memo.GroupID // scratch for matGroups

	// base is the set every live cell outside the undo log is priced for
	// (meaningful while hasBase). overlay is the stamp of the groups the
	// evaluation in flight re-priced against it, zero when there are none;
	// the logs say what begin puts back before the next one.
	base       memo.Bitset
	hasBase    bool
	overlay    uint32
	undoGroups []groupUndo
	undoCells  []cellUndo

	spill []l1Put // stores a fanned-out batch deferred, until settle

	stats Stats // since the last flushStats
}

func (s *Searcher) newWorker() *worker {
	w := &worker{matIDs: make([]memo.GroupID, 0, 64)}
	w.bind(s)
	return w
}

// fit returns a resliced to n elements when its array is large enough, else
// a new zeroed slice.
func fit[S ~[]E, E any](a S, n int) S {
	if cap(a) >= n {
		return a[:n]
	}
	return make(S, n)
}

// bind makes the worker this searcher's: its tables are sized to the
// searcher's DAG — kept where they are large enough, whatever DAG they
// served before — and nothing of the previous owner stays readable. Every
// stamp in them is at most the worker's clock and the base is dropped, so
// the first evaluation re-stamps every group past them and no cell is
// cleared.
func (w *worker) bind(s *Searcher) {
	cells := s.cells.len()
	w.s = s
	w.useMemo = fit(w.useMemo, cells)
	w.compMemo = fit(w.compMemo, cells)
	w.groups = fit(w.groups, s.M.NumGroups())
	w.bits = s.SI.NewMatSet()
	w.base = fit(w.base, len(w.bits)) // unread until a rebase fills it
	w.spill = w.spill[:0]             // the previous owner's
	w.dropBase()
	w.stats = Stats{}
}

// resetL1 drops what the run carries from one evaluation to the next: the
// L1, in O(1) by letting go of the whole table — the next evaluation starts
// an empty one — and every worker's base, so the next evaluation re-stamps
// every group and no memo cell priced before is read again. Like every
// epoch move it runs between evaluations, never while a batch's workers
// read the table.
func (s *Searcher) resetL1() {
	s.l1 = nil
	for _, w := range s.workers {
		w.dropBase()
		w.spill = w.spill[:0]
	}
}

// syncShared refreshes the run's view of the attached SharedCache when the
// cache's table set moved (and on the first evaluation after an attach): the
// namespace's table, and — after an Invalidate — the L1, which may hold
// entries the invalidation was meant to flush. Between evaluations only
// (Searcher.worker calls it).
func (s *Searcher) syncShared() {
	c := s.shared
	if c == nil {
		return
	}
	gen := c.gen.Load()
	if gen == s.sharedGen {
		return
	}
	s.sharedGen = gen
	var epoch uint64
	s.l2, epoch = c.resolve(s.Fingerprint(), s.cells)
	if epoch != s.sharedEpoch {
		s.sharedEpoch = epoch
		s.resetL1()
	}
}

// Cost kinds of a cross-call cache key: the low bit of an L1 table index
// and the compute field of a cacheKey. Only a materialized group's use cost
// is kindUse; every other cost a cache holds, a use cost outside the set
// included, is a kindComp entry (cacheKey).
const (
	kindUse  = 0
	kindComp = 1
)

// cached consults the cache levels for a use- or compute-cost key: the
// cell's bucket in the run's L1, then the same cell of the SharedCache table
// resolved for the run — at each level a pointer load and a probe, with no
// lock, no hash, and no copy into the L1. Fresh values go only to the L1;
// PublishCache hands it to the SharedCache whole.
func (w *worker) cached(cell int, mask uint64, kind int) (float64, bool) {
	i := 2*cell + kind
	if cellCheck {
		w.checkUseKey(i)
	}
	if b := w.l1[i].Load(); b != nil {
		if v, ok := b.lookup(mask); ok {
			w.stats.CacheHits++
			return v, true
		}
	}
	if w.l2 != nil {
		if v, ok := w.l2[i].Load().find(mask); ok {
			w.stats.SharedHits++
			return v, true
		}
	}
	return 0, false
}

// store adds a fresh value to the run's L1. A worker alone writes it as it
// would into a private table (storeAlone). In a fanned-out batch it shares
// it with the other workers, which may be probing and storing into the same
// bucket (l1Bucket.share): no lock and no log, so a store is written while
// the probe that missed it has left its bucket in cache, and a worker never
// waits for another (logging the stores and writing them under one lock
// kept the workers of a cold 64-query run waiting 11 ms an op). A bucket at
// the fill bound takes no shared store: the worker keeps the pair in its
// spill log for settle, which stores it as a worker alone would, evicting at
// home — the home may be under a reader until the batch is over.
func (w *worker) store(cell int, mask uint64, v float64, kind int) {
	i := 2*cell + kind
	s := w.s
	if cellCheck {
		w.checkUseKey(i)
	}
	if !s.fanned {
		s.storeAlone(i, mask, v)
		return
	}
	slot := &w.l1[i]
	b := slot.Load()
	if b == nil {
		if cellCheck {
			s.checkUseBucket(i)
		}
		nb := new(l1Bucket)
		nb.put(mask, v)
		if slot.CompareAndSwap(nil, nb) {
			return
		}
		b = slot.Load()
	}
	if !b.share(mask, v) && len(w.spill) < l1SpillLen {
		if w.spill == nil {
			w.spill = make([]l1Put, 0, l1SpillLen)
		}
		w.spill = append(w.spill, l1Put{slot: int32(i), l1Entry: l1Entry{mask: mask, val: v}})
	}
}

// storeAlone stores a pair while no other worker runs: into the first free
// position of its probe run, or at the fill bound at its home (evict).
func (s *Searcher) storeAlone(i int, mask uint64, v float64) {
	s.check.alone()
	slot := &s.l1[i]
	b := slot.Load()
	if b == nil {
		if cellCheck {
			s.checkUseBucket(i)
		}
		b = new(l1Bucket)
		slot.Store(b)
	}
	b.store(mask, v)
}

// l1SpillLen bounds the stores a worker defers in one fanned-out batch
// (192 kB, allocated once a worker): past it they are dropped. With the log
// unbounded, the first batch of a cold 64-query run defers up to 23 k stores
// over all its workers (generator seeds 1000–1003, GOMAXPROCS 2 and 4; 46 k
// when a use cost outside the set was stored under a key of its own, see
// cacheKey); keeping 8 k a worker holds its p2 and p4 computed keys within
// 2 % of p1's, where dropping them all costs 20 % more keys, and keeps p4's
// B/op within 1.15 × p1's.
const l1SpillLen = 1 << 13

// l1Put is a deferred store: the pair and the L1 slot of its bucket.
type l1Put struct {
	slot int32
	l1Entry
}

// settle runs between evaluations, when no worker stores and no reader
// probes: it stores what the last fanned-out batch deferred, so the L1
// follows the keys a run asks for now as it does on one worker.
func (s *Searcher) settle() {
	for _, w := range s.workers {
		for _, p := range w.spill {
			s.storeAlone(int(p.slot), p.mask, p.val)
		}
		w.spill = w.spill[:0]
	}
}

// worker returns the searcher's i-th worker, taking more on demand: from
// the attached SharedCache's free list when it has one large enough for
// this DAG, else newly allocated. Every entry point takes its workers here,
// between evaluations, so it is also where the run's view of the
// SharedCache follows the cache (syncShared), a run with no L1 starts one,
// and the cellcheck build holds the operator flags to what the first
// evaluation found.
func (s *Searcher) worker(i int) *worker {
	s.check.flags(s.ExtendedOps, s.Incremental)
	s.settle()
	s.syncShared()
	if s.l1 == nil && s.shared != nil {
		s.l1 = s.shared.takeTable(s.cells.len())
	}
	if s.l1 == nil {
		s.l1 = make(l1Table, 2*s.cells.len())
	}
	for len(s.workers) <= i {
		var w *worker
		if s.shared != nil {
			w = s.shared.takeWorker(s.cells.len())
		}
		if w != nil {
			w.bind(s)
		} else {
			w = s.newWorker()
		}
		s.workers = append(s.workers, w)
	}
	for _, w := range s.workers {
		w.l1, w.l2 = s.l1, s.l2
	}
	return s.workers[i]
}

// flushStats folds worker-local counters into the searcher totals; called
// only from single-goroutine contexts.
func (w *worker) flushStats() {
	w.s.Stats.add(w.stats)
	w.stats = Stats{}
}

// word is the i-th word of a set; a short or nil Bitset reads as all-zero.
func word(b memo.Bitset, i int) uint64 {
	if i < len(b) {
		return b[i]
	}
	return 0
}

// apart counts the nodes in exactly one of the two sets; b is full-width.
func apart(a, b memo.Bitset) int {
	n := 0
	for i, bw := range b {
		n += bits.OnesCount64(word(a, i) ^ bw)
	}
	return n
}

// stamp hands out a stamp no table holds yet.
func (w *worker) stamp() uint32 {
	w.clock++
	return w.clock
}

// dropBase forgets the base and whatever the last evaluation logged against
// it: the next evaluation re-stamps every group.
func (w *worker) dropBase() {
	w.hasBase, w.overlay = false, 0
	w.undoGroups, w.undoCells = w.undoGroups[:0], w.undoCells[:0]
}

// undo puts back what the last evaluation overwrote in the groups it
// re-priced against the base — their stamps, mask hashes and stored orders,
// and the cells it wrote there — so the memo again holds the base. Cells it
// wrote elsewhere stay: no changed node lies below their groups, so they
// hold for the base too.
func (w *worker) undo() {
	for i := len(w.undoCells) - 1; i >= 0; i-- {
		u := &w.undoCells[i]
		if u.cell&1 == kindUse {
			w.useMemo[u.cell>>1] = u.old
		} else {
			w.compMemo[u.cell>>1] = u.old
		}
	}
	for i := range w.undoGroups {
		w.groups[w.undoGroups[i].g] = w.undoGroups[i].old
	}
	w.undoGroups, w.undoCells, w.overlay = w.undoGroups[:0], w.undoCells[:0], 0
}

// restamp hands the groups above the nodes of a △ b one new stamp and
// returns it, zero when the sets are equal. With log set it records what
// each group held first, for undo.
func (w *worker) restamp(a, b memo.Bitset, log bool) (ep uint32) {
	for i, aw := range a {
		for d := aw ^ b[i]; d != 0; d &= d - 1 {
			if ep == 0 {
				ep = w.stamp()
			}
			for _, g := range w.s.above[i*64+bits.TrailingZeros64(d)] {
				if gs := &w.groups[g]; gs.ep != ep {
					if log {
						w.undoGroups = append(w.undoGroups, groupUndo{g, *gs})
					}
					gs.ep = ep
				}
			}
		}
	}
	return ep
}

// rebase makes to the worker's base, re-stamping — for good, nothing is
// logged — only the groups above the nodes the old base differs in; with no
// base to start from, or none to keep (to == nil), that is every group.
func (w *worker) rebase(to memo.Bitset) {
	if w.hasBase && to != nil {
		w.restamp(w.base, to, false)
	} else {
		ep := w.stamp()
		for g := range w.groups {
			w.groups[g].ep = ep
		}
		w.hasBase = to != nil
	}
	copy(w.base, to)
}

// begin makes the memo hold the set mat: a live cell — one whose stamp is
// its group's — is the group's cost under mat when begin returns. It rolls
// the previous evaluation back, follows the base the searcher chose for the
// batch in flight (Searcher.base; an evaluation on its own is a batch of
// one), and re-stamps the groups above the nodes mat differs from it in,
// logging what they held. With Incremental off no base is kept and every
// call re-stamps every group.
func (w *worker) begin(mat memo.Bitset) {
	if w.clock >= math.MaxUint32-2 { // a call takes at most two stamps
		w.wrap()
	}
	w.undo()
	for i := range w.bits {
		w.bits[i] = word(mat, i)
	}
	var base memo.Bitset
	if w.s.Incremental {
		base = w.s.base
	}
	w.rebase(base)
	if w.hasBase {
		w.overlay = w.restamp(w.base, w.bits, true)
	}
}

// wrap hard-resets the memo before the clock runs out: stamps would turn
// ambiguous. A worker lives as long as its session (≈ 139 k calls/s wrap a
// uint32 in under nine hours), and its arrays may extend past this DAG's
// cells: their whole capacity is cleared.
func (w *worker) wrap() {
	clear(w.useMemo[:cap(w.useMemo)])
	clear(w.compMemo[:cap(w.compMemo)])
	clear(w.groups[:cap(w.groups)])
	w.clock = 0
	w.dropBase()
}

// logCell records, before the evaluation in flight overwrites it, a cell of
// a group re-stamped for this evaluation alone.
func (w *worker) logCell(g memo.GroupID, cell, kind int, m *epVal) {
	if w.groups[g].ep == w.overlay {
		w.undoCells = append(w.undoCells, cellUndo{int32(2*cell + kind), *m})
	}
}

// matGroups gathers the current set's group ids (ascending) into the
// worker's scratch slice.
func (w *worker) matGroups() []memo.GroupID {
	ids := w.matIDs[:0]
	for wi, v := range w.bits {
		for v != 0 {
			b := bits.TrailingZeros64(v)
			ids = append(ids, w.s.SI.GroupAt(wi*64+b))
			v &= v - 1
		}
	}
	w.matIDs = ids
	return ids
}

// matHas reports whether the group is in the current materialization set.
func (w *worker) matHas(g memo.GroupID) bool {
	sl := w.s.SI.Pos(g)
	return sl >= 0 && w.bits.HasSlot(sl)
}

// stored returns the order a materialized group is stored in under the
// current set: the one its cheapest unconstrained compute plan delivers,
// fixed the first time a reader asks, so consumers whose requirement that
// order satisfies skip the re-sort — the physical-property handling on
// intermediate relations the paper's Section 6 implementation includes.
// That plan reads the materializations below the group in their stored
// orders, which the same rule fixes on the way down, so dependencies come
// first.
func (w *worker) stored(g memo.GroupID) ordID {
	gs := &w.groups[g]
	if gs.storedEp != gs.ep {
		gs.storedOrd = w.bestDeliveredOrder(g)
		gs.storedEp = gs.ep
	}
	return gs.storedOrd
}

// maskHash returns the Section 5.1 cache mask for the group under the
// current set, memoized like a cell.
func (w *worker) maskHash(g memo.GroupID) uint64 {
	gs := &w.groups[g]
	if gs.mhEp != gs.ep {
		gs.mhVal = memo.HashMasked(w.s.SI.Descendants(g), w.bits)
		gs.mhEp = gs.ep
	}
	return gs.mhVal
}

// BestCost is bc(S): see the package comment.
func (s *Searcher) BestCost(mat NodeSet) float64 {
	w := s.solo(mat)
	v := s.bestCostOn(w, mat.bits)
	w.flushStats()
	return v
}

// solo readies worker 0 for an evaluation of mat on its own: the sequential
// entry points (BestCost, BestPlan, CostBreakdown) choose its base as
// BestCostBatchCtx does for a batch of one (setBatchBase).
func (s *Searcher) solo(mat NodeSet) *worker {
	s.setBatchBase([]NodeSet{mat})
	return s.worker(0)
}

// bestCostOn prices mat on the worker against the searcher's base (see
// begin). Whatever begin found live, every materialized group's and every
// root's term is added, in this order: the float total is the full walk's.
func (s *Searcher) bestCostOn(w *worker, mat memo.Bitset) float64 {
	w.stats.BCCalls++
	w.begin(mat)
	total := 0.0
	for _, id := range w.matGroups() {
		total += w.compute(id, 0, s.cells.anyCell(id)) + s.writeArr[id]
	}
	for _, root := range s.M.QueryRoots {
		total += w.useCost(root, 0, s.cells.anyCell(root))
	}
	return total
}

// BestCostBatchCtx evaluates bc(S) for every set and returns the costs in
// input order, on as many workers as the searcher decides (see the package
// comment): GOMAXPROCS, capped by the batch, or worker 0 alone while the
// evaluations before the batch read caches (fanOutKeys). Worker 0 runs on
// the calling goroutine and the others, if any, on their own; every worker
// runs the same loop. Once ctx is cancelled no further evaluation starts (a
// bc(S) evaluation already underway runs to completion — cancellation
// granularity is one oracle call); a nil ctx never cancels. Every
// evaluation passes faultinject.OracleEval and is panic-isolated: a panic —
// injected or genuine — is recovered into a PanicError for TakeFault and
// aborts the batch, so a poisoned worker can never kill the process or
// publish a half-computed cost. On abort it returns ok=false together with
// the completed prefix of the results — costs[:k] such that every
// evaluation before the first unevaluated set finished. Each value in the
// prefix is the exact, deterministic bc(S) of its set, so a
// budget-interrupted round can commit them (e.g. memoize best-so-far
// candidates) without any risk to determinism; only how much of the batch
// survives depends on timing. With a nil or undone context results are
// complete, in input order, and bit-identical to sequential BestCost calls.
func (s *Searcher) BestCostBatchCtx(ctx context.Context, mats []NodeSet) (costs []float64, ok bool) {
	s.fault = nil
	out := make([]float64, len(mats))
	par := max(1, min(runtime.GOMAXPROCS(0), len(mats)))
	if did := s.Stats.Sub(s.batchMark); did.BCCalls > 0 && did.ComputedKey < fanOutKeys*did.BCCalls {
		par = 1
	}
	s.batchMark = s.Stats
	s.setBatchBase(mats)
	s.worker(par - 1) // takes the batch's workers: s.workers[:par]
	s.fanned = par > 1
	b := &batch{ctx: ctx, mats: mats, out: out, completed: make([]bool, len(mats))}
	for _, w := range s.workers[1:par] {
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			s.runBatch(b, w)
		}()
	}
	s.runBatch(b, s.workers[0])
	b.wg.Wait()
	s.fanned = false
	for _, w := range s.workers[:par] {
		w.flushStats()
	}
	s.fault = b.fault.Load()
	if !b.aborted.Load() {
		return out, true
	}
	done := 0
	for done < len(mats) && b.completed[done] {
		done++
	}
	return out[:done], false
}

// batch is what the workers of one BestCostBatchCtx call share.
type batch struct {
	ctx  context.Context
	mats []NodeSet
	out  []float64
	// completed[i] is written by the worker that priced set i and read
	// after wg.
	completed []bool
	next      atomic.Int64 // sets claimed so far
	aborted   atomic.Bool
	fault     atomic.Pointer[faultinject.PanicError] // the first panic recovered
	wg        sync.WaitGroup
}

// runBatch is the loop every worker of a batch runs: claim the next set and
// price it, until the sets run out or the batch aborts. A panic ends the
// loop and aborts the batch; the set it was pricing stays uncompleted.
func (s *Searcher) runBatch(b *batch, w *worker) {
	s.check.enter()
	defer func() {
		s.check.leave()
		if r := recover(); r != nil {
			b.fault.CompareAndSwap(nil, faultinject.NewPanicError("physical.BestCostBatch", r))
			b.aborted.Store(true)
		}
	}()
	for {
		i := int(b.next.Add(1) - 1)
		if i >= len(b.mats) || b.aborted.Load() {
			return
		}
		if b.ctx != nil && b.ctx.Err() != nil {
			b.aborted.Store(true)
			return
		}
		faultinject.Hit(faultinject.OracleEval)
		b.out[i] = s.bestCostOn(w, b.mats[i].bits)
		b.completed[i] = true
	}
}

// fanOutKeys is the number of keys an evaluation must compute, on average
// over the evaluations since the start of the last batch, for the next batch
// to be worth a second worker: below it the batch runs on worker 0 alone. An
// evaluation the caches serve costs 1–6 µs, less than waking a goroutine,
// and a worker that is never woken is never taken or allocated. Measured
// with the rule off (2-vCPU Xeon 2.6 GHz, a warm Session.Optimize on one
// worker against two): 16 queries 0.47 against 0.66 ms, 32 queries 1.34
// against 1.70, 64 queries 5.7 against 6.0 — under a key a call each. Cold
// runs (≈ 350 keys a call at 64 queries) fan out. With the batch's workers
// sharing one L1, a cold MarginalGreedy run on one worker against two (same
// box, medians of five interleaved runs of 7–15 each, noisy) takes 5.4–8.2
// against 6.2–8.4 ms at 16 queries (two lose in four runs of five),
// 15.5–23.3 against 15.7–20.0 at 32 (two win in three) and 93–131 against
// 78–110 at 64 (two win in three); with private L1s it was 6.1–6.3 against
// 7.4–9.0, 14.8–15.2 against 17.1–18.6 and 81.8–83.5 against 69.1–69.7. Once
// a use cost outside the set stopped being stored twice (a cold key got
// cheaper; same box, GOMAXPROCS 1 against 2, medians of five interleaved runs
// of 10) it read 6.6 against 6.8 ms at 16 queries (6.0–8.9 against 6.3–8.0),
// 20.3 against 18.9 at 32 (14.3–22.0 against 14.0–19.8) and 123 against 81 at
// 64 (104–131 against 73–90). That is the crossover a finer rule would have
// to find, which is ROADMAP item 3(b)'s. A searcher's first batch after no
// evaluation at all fans out.
const fanOutKeys = 16

// setBatchBase chooses the base of a batch: the current one while every set
// of the batch lies within one node of it — a later chunk of the same
// round — and otherwise the batch's bitwise majority, which is S for a
// round of S ∪ {x} and U for DecomposeStar's U ∖ {e}. With Incremental off
// there is no base to choose.
func (s *Searcher) setBatchBase(mats []NodeSet) {
	if !s.Incremental {
		return
	}
	if s.base == nil {
		s.base, s.tally = s.SI.NewMatSet(), make([]int32, s.SI.Len())
	} else {
		near := true
		for i := 0; near && i < len(mats); i++ {
			near = apart(mats[i].bits, s.base) <= 1
		}
		if near {
			return
		}
	}
	clear(s.tally)
	for _, m := range mats {
		for wi, v := range m.bits {
			for ; v != 0; v &= v - 1 {
				s.tally[wi*64+bits.TrailingZeros64(v)]++
			}
		}
	}
	clear(s.base)
	for slot, n := range s.tally {
		if 2*int(n) > len(mats) {
			s.base.SetSlot(slot)
		}
	}
}

// TakeFault returns the panic recovered during the most recent batch, if
// any, and clears it. A non-nil fault means that batch aborted with
// ok=false and its committed prefix is still exact; the memo and caches of
// this searcher may however be inconsistent, so callers must not reuse the
// searcher for further evaluation (repro.Session quarantines it).
func (s *Searcher) TakeFault() error {
	f := s.fault
	s.fault = nil
	if f == nil {
		return nil
	}
	return f
}

// useCost returns the cheapest way for a consumer to obtain the group's
// result in the required order; cell is the pair's cell, which the caller
// has from a template or from the index. The per-call memo check lives in
// this tiny wrapper so it inlines into the pricing loops — the oracle
// resolves the overwhelming majority of useCost calls from the scratch
// table, and a full call frame per memo hit is measurable at workload scale.
func (w *worker) useCost(g memo.GroupID, ord ordID, cell int) float64 {
	m := &w.useMemo[cell]
	if m.ep == w.groups[g].ep {
		return m.val
	}
	return w.useCostMiss(g, ord, cell, m)
}

// useCostMiss is useCost's slow path. Outside the set the use cost is the
// compute cost, under the compute key (see cacheKey); a materialized group
// consults its use key, else prices reading its copy against computing it.
func (w *worker) useCostMiss(g memo.GroupID, ord ordID, cell int, m *epVal) float64 {
	s := w.s
	if cellCheck {
		s.checkCell(g, ord, cell)
	}
	w.logCell(g, cell, kindUse, m)
	if !w.matHas(g) {
		v := w.compute(g, ord, cell)
		m.val = v
		m.ep = w.groups[g].ep
		return v
	}
	var mask uint64
	if s.Incremental {
		mask = w.maskHash(g)
		if v, ok := w.cached(cell, mask, kindUse); ok {
			m.val = v
			m.ep = w.groups[g].ep
			return v
		}
	}
	v := w.compute(g, ord, cell)
	if alt, _ := w.matUseCost(g, ord); alt < v {
		v = alt
	}
	m.val = v
	m.ep = w.groups[g].ep
	if s.Incremental {
		w.store(cell, mask, v, kindUse)
	}
	return v
}

// matUseCost prices reading the group's materialized copy under the
// required order: the materialize-read cost plus, when the stored order
// does not satisfy the requirement, a re-sort. It is the single pricing
// rule shared by the cost search (useCost) and plan extraction
// (extractUse); callers must have checked matHas(g).
func (w *worker) matUseCost(g memo.GroupID, ord ordID) (cost float64, needSort bool) {
	s := w.s
	cost = s.readArr[g]
	needSort = !s.sat[w.stored(g)][ord]
	if needSort {
		cost += s.sortArr[g] // re-sort the materialized copy
	}
	return cost, needSort
}

// compute returns the cheapest plan that computes the group from its
// inputs (ignoring a materialized copy of the group itself) in the
// required order. Like useCost, the memo check inlines at call sites.
func (w *worker) compute(g memo.GroupID, ord ordID, cell int) float64 {
	m := &w.compMemo[cell]
	if m.ep == w.groups[g].ep {
		return m.val
	}
	return w.computeMiss(g, ord, cell, m)
}

// computeMiss is compute's slow path: cross-call cache, then a fresh
// pass over the group's implementation templates.
func (w *worker) computeMiss(g memo.GroupID, ord ordID, cell int, m *epVal) float64 {
	s := w.s
	if cellCheck {
		s.checkCell(g, ord, cell)
	}
	w.logCell(g, cell, kindComp, m)
	m.val = inf // guard against accidental cycles
	m.ep = w.groups[g].ep
	var mask uint64
	if s.Incremental {
		mask = w.maskHash(g)
		if v, ok := w.cached(cell, mask, kindComp); ok {
			m.val = v
			return v
		}
	}
	w.stats.ComputedKey++
	best := inf
	for i := range s.tmpls[g] {
		if cost, _, ok := w.price(&s.tmpls[g][i], ord, cell); ok && cost < best {
			best = cost
		}
	}
	// Sort enforcer: compute in any order, then sort.
	if ord != 0 {
		if v := w.compute(g, 0, s.cells.anyCell(g)) + s.sortArr[g]; v < best {
			best = v
		}
	}
	m.val = best
	if s.Incremental {
		w.store(cell, mask, best, kindComp)
	}
	return best
}

// price returns one template's total use-cost (children included) and
// delivered order under the current materialization set, for the template's
// group asked for ord at cell; ok is false when the template is gated off or
// cannot deliver the required order. It is the single pricing rule shared by
// the cost search (compute), the stored-order pass (bestDeliveredOrder) and
// plan extraction (extractCompute) — and the rule fillCells compiles the
// cells from: which (group, order) pairs it can reach is fixed by the
// templates, whatever the set.
func (w *worker) price(t *tmpl, ord ordID, cell int) (cost float64, out ordID, ok bool) {
	s := w.s
	if t.extended && !s.ExtendedOps {
		return 0, 0, false
	}
	// The child lookups are the oracle's innermost edge: the per-call memo
	// check is written out by hand because useCost's call frame exceeds
	// the inlining budget, and the overwhelming majority of child lookups
	// are memo hits.
	if t.passthrough {
		// Order-preserving filter: forward the requirement. The child shares
		// the group's order list, so its cell lies a fixed distance away.
		c := &t.child[0]
		cc := cell + int(c.cell)
		m := &w.useMemo[cc]
		if m.ep == w.groups[c.g].ep {
			return m.val + t.local, ord, true
		}
		return w.useCostMiss(c.g, ord, cc, m) + t.local, ord, true
	}
	if !s.sat[t.out][ord] {
		return 0, 0, false
	}
	for ci := uint8(0); ci < t.nchild; ci++ {
		c := &t.child[ci]
		m := &w.useMemo[c.cell]
		if m.ep == w.groups[c.g].ep {
			cost += m.val
		} else {
			cost += w.useCostMiss(c.g, c.ord, int(c.cell), m)
		}
	}
	lc := t.local
	if t.matGate >= 0 && !w.matHas(t.matGate) {
		lc = t.localSpill
	}
	return cost + lc, t.out, true
}

// bestDeliveredOrder returns the order delivered by the cheapest
// unconstrained compute plan of the group.
func (w *worker) bestDeliveredOrder(g memo.GroupID) ordID {
	s := w.s
	best := inf
	var out ordID
	for i := range s.tmpls[g] {
		if cost, o, ok := w.price(&s.tmpls[g][i], 0, s.cells.anyCell(g)); ok && cost < best {
			best = cost
			out = o
		}
	}
	return out
}

const inf = 1e300
