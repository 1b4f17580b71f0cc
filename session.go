package repro

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/logical"
	"repro/internal/memo"
	"repro/internal/physical"
	"repro/internal/submod"
	"repro/internal/volcano"
)

// Progress is the per-round report delivered to WithProgress callbacks;
// cancelling the run's context from inside one stops the optimization at a
// deterministic round.
type Progress = submod.Progress

// StopReason says why a run ended early; StopNone marks a complete run.
type StopReason = submod.StopReason

// Re-exported stop reasons.
const (
	StopNone       = submod.StopNone
	StopCancelled  = submod.StopCancelled
	StopTimeBudget = submod.StopTimeBudget
	StopCallBudget = submod.StopCallBudget
	StopPanic      = submod.StopPanic
	StopPreempted  = submod.StopPreempted
)

// ErrPreempted is the cancellation cause that classifies a stop as
// StopPreempted; schedulers cancel a run's context with it (or use
// WithPreemptSignal, which does so at round boundaries only).
var ErrPreempted = submod.ErrPreempted

// Telemetry is the per-run accounting carried by every Result.
type Telemetry = core.Telemetry

// Checkpoint is the resumable token of an interrupted Optimize call: the
// round-boundary snapshot of the greedy scan plus the fingerprint of the
// search space it was taken against. It is pure JSON-able data with no
// session state, so it can travel to a client and resume on any session
// over the same catalog, batch, and operator flags — including after the
// original session was quarantined by a panic (the committed prefix is
// exact regardless of what the panic poisoned).
type Checkpoint struct {
	// Fingerprint identifies the compiled search space and operator flags
	// (physical.Searcher.Fingerprint). WithResume validates it against the
	// rebuilt optimizer and rejects a mismatch with ErrResumeMismatch
	// instead of resuming against a different problem.
	Fingerprint uint64 `json:"fingerprint"`
	// State is the algorithm snapshot; its Algorithm field decides the
	// strategy of the resumed run.
	State *submod.Checkpoint `json:"state"`
}

// ErrResumeMismatch reports a WithResume checkpoint taken against a
// different search space than the one the call rebuilt: different batch,
// catalog scale, rule ablations, or operator flags.
var ErrResumeMismatch = errors.New("repro: checkpoint does not match this batch's search space")

// FaultError is the error of an Optimize call stopped by a recovered
// panic. The process survived — the panic was isolated inside the oracle's
// worker pool — but this session's caches may be inconsistent: the caller
// must stop using the session (a pool should quarantine it). The committed
// greedy prefix is still exact, so Checkpoint (when the run had selected
// state) resumes on a fresh session; Telemetry reports the faulted run's
// accounting, which is deliberately NOT added to the session Stats.
type FaultError struct {
	// Panic is the recovered panic (a *faultinject.PanicError with the
	// panic value and the stack captured at the recovery site).
	Panic error
	// Checkpoint resumes the interrupted run's committed prefix; nil when
	// the run faulted before it had any state (bc(∅), the decomposition),
	// after its search (the pricing of the chosen set), or under a strategy
	// that does not resume.
	Checkpoint *Checkpoint
	// Telemetry is the faulted run's accounting (Stopped == StopPanic).
	Telemetry Telemetry
}

// Error implements error.
func (e *FaultError) Error() string { return "repro: optimization faulted: " + e.Panic.Error() }

// Unwrap exposes the recovered panic to errors.Is/As.
func (e *FaultError) Unwrap() error { return e.Panic }

// config carries the session and per-call knobs; per-call options override
// the session's defaults.
type config struct {
	strategy    Strategy
	timeBudget  time.Duration
	callBudget  int
	hasBudget   bool
	progress    func(Progress)
	extendedOps bool
	resume      *Checkpoint
	warmOracle  bool
	preempt     func() bool
}

// Option configures a Session (defaults for every call) or a single
// Session.Optimize call.
type Option func(*config)

// WithStrategy selects the MQO algorithm (default MarginalGreedy).
func WithStrategy(s Strategy) Option {
	return func(c *config) { c.strategy = s }
}

// WithTimeBudget caps the wall-clock time of the optimization run — the
// bc(∅) setup, decomposition and greedy search phases — of one Optimize
// call (0 = none). When it expires the greedy scan stops between oracle
// rounds and the call returns the best-so-far materialization set with
// Telemetry.Stopped = StopTimeBudget. DAG construction before the run and
// plan extraction after it are not covered (both are near-linear in the
// batch, orders of magnitude below the search; see RunResult.BuildTime and
// ExtractTime for what they cost).
func WithTimeBudget(d time.Duration) Option {
	return func(c *config) { c.timeBudget = d }
}

// WithOracleCallBudget caps the memoized-distinct mb(S) oracle evaluations
// the algorithm may spend; n = 0 forbids any, so the strategies return the
// empty set. Budget exhaustion is checked between rounds, so results are
// deterministic for a given budget.
func WithOracleCallBudget(n int) Option {
	return func(c *config) { c.callBudget, c.hasBudget = n, true }
}

// WithProgress installs a per-round callback.
func WithProgress(fn func(Progress)) Option {
	return func(c *config) { c.progress = fn }
}

// WithExtendedOps enables the extended operator set (hash join, hash
// aggregation) beyond the paper's rules.
func WithExtendedOps(on bool) Option {
	return func(c *config) { c.extendedOps = on }
}

// WithWarmOracle lets runs consume memoized oracle values earlier runs
// over the same search space published into the session's shared cache,
// skipping those oracle calls entirely (Telemetry.SharedOracleHits counts
// them; OracleCalls+SharedOracleHits is the cold cost). Every run always
// publishes its values; consuming is opt-in because it changes call
// accounting — budgets, quota charges — for repeated identical batches,
// which cold-replay determinism otherwise relies on. ImportCache turns it
// on implicitly: a session warm-started from a snapshot exists to spend
// fewer calls.
func WithWarmOracle(on bool) Option {
	return func(c *config) { c.warmOracle = on }
}

// WithPreemptSignal installs a scheduler's suspend signal: it is polled
// after every completed greedy round, and when it returns true the run
// stops at that round boundary with Telemetry.Stopped == StopPreempted
// and (for a resumable lazy strategy) a Checkpoint that WithResume
// continues bit-identically. Because the poll happens only between
// rounds, the suspended segments' telemetry is conserving: summing each
// segment's oracle work (MergeSegments) equals an unpreempted run's.
func WithPreemptSignal(fn func() bool) Option {
	return func(c *config) { c.preempt = fn }
}

// MergeSegments folds the per-segment telemetry of a preempted-and-resumed
// run into the telemetry an unpreempted run would have reported: additive
// counters (oracle calls, bestCost work, cache traffic, phase times) sum
// across segments, while the scan-cumulative counters (Rounds, Pruned,
// Stale, Reused — a resumed segment continues its predecessor's counts)
// and the stop reason come from the final segment. An empty slice returns
// a zero Telemetry.
func MergeSegments(segs []Telemetry) Telemetry {
	var out Telemetry
	for _, t := range segs {
		out.Add(t)
	}
	if n := len(segs); n > 0 {
		last := segs[n-1]
		out.Rounds, out.Pruned, out.Stale, out.Reused = last.Rounds, last.Pruned, last.Stale, last.Reused
	}
	return out
}

// WithResume continues an interrupted run from its checkpoint instead of
// restarting: the call rebuilds the DAG for the batch as usual, validates
// the checkpoint's fingerprint against it (ErrResumeMismatch on any
// difference), and re-enters the greedy scan exactly where it stopped. The
// resumed strategy is the checkpoint's — WithStrategy is ignored — and
// budgets apply to the continuation, which can itself stop and return a
// further checkpoint. Resume-after-stop is bit-identical to an
// uninterrupted run over the same batch.
func WithResume(cp *Checkpoint) Option {
	return func(c *config) { c.resume = cp }
}

// SessionStats aggregates telemetry across a session's Optimize calls.
// Every counter is the exact sum of the corresponding per-call Telemetry
// field, so a caller holding all RunResults can reconcile the aggregate
// against them (the serving front end's race-stress tests do). The JSON
// tags are the wire contract of /v1/stats; durations marshal as
// nanoseconds.
type SessionStats struct {
	Batches      int `json:"batches"`       // Optimize calls completed
	Interrupted  int `json:"interrupted"`   // calls stopped by a budget or cancellation
	OracleCalls  int `json:"oracle_calls"`  // total memoized-distinct oracle calls
	BCCalls      int `json:"bc_calls"`      // total bestCost invocations
	CacheHits    int `json:"cache_hits"`    // lookups served by the run's L1
	SharedHits   int `json:"shared_hits"`   // lookups served by the session SharedCache (L2)
	ComputedKeys int `json:"computed_keys"` // fresh (group, order, mask) computations
	// SharedOracleHits counts whole oracle evaluations served from the
	// session cache's cross-run memo — calls a cold session would have paid
	// for but this one did not (warm-start savings).
	SharedOracleHits int `json:"shared_oracle_hits"`
	Rounds           int `json:"rounds"`              // completed greedy rounds
	Invalidations    int `json:"cache_invalidations"` // InvalidateCache calls
	// Faults counts Optimize calls stopped by a recovered panic. A faulted
	// call contributes ONLY here: its telemetry is excluded from every
	// other counter (and the call returns a *FaultError, not a RunResult),
	// so the sum-over-responses reconciliation above still balances.
	Faults      int           `json:"faults"`
	BuildTime   time.Duration `json:"build_ns"`   // DAG construction
	OptTime     time.Duration `json:"opt_ns"`     // strategy runs
	ExtractTime time.Duration `json:"extract_ns"` // consolidated-plan extraction
	PublishTime time.Duration `json:"publish_ns"` // handing the run's cost learning to the session cache
	// RecipeHits / RecipeMisses are CompiledHits / CompiledMisses weighted
	// by query count (memo.BuildCache): the queries of the batches whose
	// build was skipped, and of the batches that were built. The names are
	// the wire contract. They are session-level build accounting, not
	// per-run telemetry, so they are excluded from the sum-over-responses
	// reconciliation, like the three below.
	RecipeHits   int64 `json:"recipe_hits"`
	RecipeMisses int64 `json:"recipe_misses"`
	// CompiledHits / CompiledMisses count batches, not queries: a hit is a
	// call whose batch the session had compiled before and still held — it
	// got that DAG and search space back instead of building them — a miss
	// is a call that built. CompiledNodes is the number of operator nodes
	// of the DAGs the session holds right now (a gauge, bounded; dropped by
	// InvalidateCache).
	CompiledHits   int64 `json:"compiled_hits"`
	CompiledMisses int64 `json:"compiled_misses"`
	CompiledNodes  int   `json:"compiled_nodes"`
}

// Add folds o into s: one call's accounting into its session's, or a retired
// session's lifetime into a pool's aggregate. Every counter and time sums;
// CompiledNodes, a gauge of what a session holds right now, is left alone (a
// retired session holds nothing).
func (s *SessionStats) Add(o SessionStats) {
	s.Batches += o.Batches
	s.Interrupted += o.Interrupted
	s.OracleCalls += o.OracleCalls
	s.BCCalls += o.BCCalls
	s.CacheHits += o.CacheHits
	s.SharedHits += o.SharedHits
	s.ComputedKeys += o.ComputedKeys
	s.SharedOracleHits += o.SharedOracleHits
	s.Rounds += o.Rounds
	s.Invalidations += o.Invalidations
	s.Faults += o.Faults
	s.BuildTime += o.BuildTime
	s.OptTime += o.OptTime
	s.ExtractTime += o.ExtractTime
	s.PublishTime += o.PublishTime
	s.RecipeHits += o.RecipeHits
	s.RecipeMisses += o.RecipeMisses
	s.CompiledHits += o.CompiledHits
	s.CompiledMisses += o.CompiledMisses
}

// Session is a long-lived handle for optimizing many batches against one
// catalog: it fixes the catalog, the cost model and the tuning knobs
// (strategy, budgets) once, and every Optimize call reuses
// them. Optimize is safe for concurrent use — each call owns its optimizer
// — and the session aggregates telemetry across calls (Stats).
//
// A session exists for the recurring batch, and keeps three things for it.
// The combined DAG and its compiled search space, built by the first call
// that optimizes a batch, are held (memo.BuildCache, bounded, least recently
// used out): a later call with the same batch — same queries, names, order —
// gets the same immutable objects back and goes straight to the search. The
// cross-call cost cache (physical.SharedCache, one table per DAG
// fingerprint) is attached to every call's searcher, and each call ends by
// publishing into it what its workers learned, so an identical batch starts
// warm. And the workers' scratch tables, emptied by that publish — the last
// thing a call does with its searcher — wait in the cost cache for the next
// call. None of it can change a result: a DAG is a pure function of catalog
// and batch, cached costs are pure functions of their keys
// (Telemetry.SharedHits reports how often they helped), and a reused worker
// starts empty. The search itself always runs, so every call reports the
// same oracle work (WithWarmOracle is the opt-in that skips it).
type Session struct {
	cat      *catalog.Catalog
	model    cost.Model
	defaults config
	cache    *physical.SharedCache
	// build holds the memos (with their compiled search spaces) of the
	// batches the session has optimized: pure functions of (catalog, batch),
	// so none goes stale within a session.
	build *memo.BuildCache
	// warmed flips on when a snapshot is imported: from then on every run
	// consumes memoized oracle values from the shared cache (see
	// WithWarmOracle), which is the entire point of warm-starting.
	warmed atomic.Bool

	mu    sync.Mutex
	stats SessionStats
}

// NewSession creates a session over a catalog and cost model. Options set
// the defaults applied to every Optimize call; per-call options override
// them.
func NewSession(cat *catalog.Catalog, model cost.Model, opts ...Option) (*Session, error) {
	if cat == nil {
		return nil, errors.New("repro: nil catalog")
	}
	s := &Session{
		cat:      cat,
		model:    model,
		defaults: config{strategy: MarginalGreedy},
		cache:    physical.NewSharedCache(),
		build:    memo.NewBuildCache(),
	}
	for _, o := range opts {
		o(&s.defaults)
	}
	return s, nil
}

// InvalidateCache drops everything the session holds for a recurring batch:
// the cost cache's tables, memoized oracle values and free workers, and the
// compiled DAGs, all released to the collector (a run in flight keeps what
// it already has). Correctness never requires it — cost entries are
// namespaced by DAG fingerprint and operator flags, DAGs are keyed by the
// batch — but a long-running session may use it to bound memory or force
// cold measurements. A session pool evicting this session should call it so
// the dropped entry releases its memory immediately; Stats counts the
// invalidations.
func (s *Session) InvalidateCache() {
	s.cache.Invalidate()
	s.build.Drop()
	s.mu.Lock()
	s.stats.Invalidations++
	s.mu.Unlock()
}

// CacheEntries reports how many live entries the session's shared
// cross-call cost cache currently holds — cost keys and memoized oracle
// values together. It is the warmth metric the serving tier exposes per
// pooled session.
func (s *Session) CacheEntries() int { return s.cache.Len() }

// ExportCache snapshots the session's shared cost cache — every cost key
// and memoized oracle value, across all search-space namespaces the
// session has served — into a portable, versioned physical.CacheSnapshot.
// scope is an owner-chosen label (the serving tier uses the catalog pool
// key) that ImportCache verifies, so a snapshot taken for one catalog
// configuration cannot be imported into another by accident. The snapshot
// is canonical: exporting, importing into a fresh session and exporting
// again yields byte-identical encodings.
func (s *Session) ExportCache(scope string) *physical.CacheSnapshot {
	return s.cache.Export(scope)
}

// ImportCache merges a snapshot exported by ExportCache into the session's
// shared cache, returning the number of entries imported. A scope mismatch
// is rejected with a *physical.SnapshotError before anything is merged.
// Cached values are pure functions of their namespaced keys, so importing
// can never change an optimization result — a warm-started session only
// spends fewer oracle calls reaching the bit-identical answer (the serving
// tier's warm-join path relies on exactly that).
func (s *Session) ImportCache(snap *physical.CacheSnapshot, scope string) (int, error) {
	n, err := s.cache.Import(snap, scope)
	if err == nil {
		s.warmed.Store(true)
	}
	return n, err
}

// RunResult is the outcome of one Session.Optimize call: the strategy
// result (with telemetry), the extracted consolidated plan, and the
// call-level phase times.
type RunResult struct {
	Result
	Plan        *Plan
	BuildTime   time.Duration // combined-DAG construction
	ExtractTime time.Duration // consolidated-plan extraction
	// PublishTime is the time spent handing the run's cost learning to the
	// session cache after extraction. BuildTime + OptTime + ExtractTime +
	// PublishTime covers the call.
	PublishTime time.Duration
	// Checkpoint, set when the run stopped early under a resumable lazy
	// strategy, is the token WithResume continues from. (It shadows the
	// embedded core result's raw snapshot, adding the fingerprint pin.)
	Checkpoint *Checkpoint

	opt *volcano.Optimizer
}

// Validate audits the extracted consolidated plan against the cost search
// (structure, orders, and cost totals).
func (r *RunResult) Validate() error {
	return r.opt.ValidatePlan(r.Plan, r.MatSet())
}

// Memo exposes the combined DAG the plan was extracted from; the executor
// (internal/exec) resolves group properties against it. The session holds
// the same object for later calls with the same batch, and concurrent calls
// may be searching it: it is read-only.
func (r *RunResult) Memo() *memo.Memo { return r.opt.Memo }

// Optimize runs multi-query optimization over one batch. ctx cancels the
// run between oracle rounds (and between individual evaluations of an
// in-flight concurrent batch); budgets behave the same way, so an
// interrupted call still returns a deterministic best-so-far result, its
// plan, and telemetry explaining where the time went. With no budget set
// the chosen sets and costs are bit-identical to the seed-oracle goldens.
// It is OptimizeShared over the one group, minus the attribution.
func (s *Session) Optimize(ctx context.Context, batch *logical.Batch, opts ...Option) (*RunResult, error) {
	sr, err := s.OptimizeShared(ctx, []*logical.Batch{batch}, opts...)
	if err != nil {
		return nil, err
	}
	return sr.RunResult, nil
}

// runBatch is the body of OptimizeShared: build the combined DAG, run the
// strategy, extract the plan, attribute the run to its member groups (counts
// are their query counts), publish cache learning, and account session stats.
// Publishing comes last of what touches the searcher: it hands the workers
// back, so everything that evaluates on them runs before it.
func (s *Session) runBatch(ctx context.Context, batch *logical.Batch, counts []int, cfg config) (*SharedResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	buildStart := time.Now()
	opt, err := volcano.NewOptimizer(s.cat, s.model, batch, memo.WithBuildCache(s.build))
	if err != nil {
		return nil, err
	}
	build := time.Since(buildStart)
	opt.AttachSharedCache(s.cache)
	opt.ExtendedOps = cfg.extendedOps

	cc := core.Config{
		TimeBudget:    cfg.timeBudget,
		Progress:      cfg.progress,
		WarmOracle:    cfg.warmOracle || s.warmed.Load(),
		PreemptSignal: cfg.preempt,
	}
	if cfg.hasBudget {
		cc = cc.LimitOracleCalls(cfg.callBudget)
	}
	var res Result
	if cfg.resume != nil {
		if cfg.resume.State == nil {
			return nil, errors.New("repro: checkpoint carries no state")
		}
		if cfg.resume.Fingerprint != opt.Fingerprint() {
			return nil, ErrResumeMismatch
		}
		res, err = core.ResumeWith(ctx, opt, cfg.resume.State, cc)
		if err != nil {
			return nil, err
		}
	} else {
		res = core.RunWith(ctx, opt, cfg.strategy, cc)
	}
	var cp *Checkpoint
	if res.Checkpoint != nil {
		cp = &Checkpoint{Fingerprint: opt.Fingerprint(), State: res.Checkpoint}
	}
	if res.Fault != nil {
		// The run was stopped by a recovered panic. The searcher's caches
		// may be inconsistent, so neither plan extraction nor cache
		// publication may touch them (a poisoned entry published into the
		// session cache would outlive the searcher); only the Faults
		// counter records the call, keeping the stats-vs-responses
		// reconciliation balanced. The session itself must be quarantined
		// by its owner — the shared cache it already holds is suspect.
		s.mu.Lock()
		s.stats.Faults++
		s.mu.Unlock()
		return nil, &FaultError{Panic: res.Fault, Checkpoint: cp, Telemetry: res.Telemetry}
	}

	extractStart := time.Now()
	plan := opt.Plan(res.MatSet())
	extract := time.Since(extractStart)
	rr := &RunResult{Result: res, Plan: plan, BuildTime: build, ExtractTime: extract, Checkpoint: cp, opt: opt}
	attrs := attributeShared(rr, counts)
	// Publish this call's cost learning into the session cache so later
	// batches with the same DAG fingerprint start warm.
	publishStart := time.Now()
	opt.PublishCache()
	rr.PublishTime = time.Since(publishStart)

	tel := res.Telemetry
	call := SessionStats{
		Batches: 1, OracleCalls: tel.OracleCalls, BCCalls: tel.BCCalls,
		CacheHits: tel.CacheHits, SharedHits: tel.SharedHits, ComputedKeys: tel.ComputedKeys,
		SharedOracleHits: tel.SharedOracleHits, Rounds: tel.Rounds,
		BuildTime: build, OptTime: res.OptTime, ExtractTime: extract, PublishTime: rr.PublishTime,
	}
	if tel.Stopped != StopNone {
		call.Interrupted = 1
	}
	s.mu.Lock()
	s.stats.Add(call)
	s.mu.Unlock()

	return &SharedResult{RunResult: rr, Attributions: attrs}, nil
}

// Stats returns the telemetry aggregated over the session's calls so far.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	st := s.stats
	s.mu.Unlock()
	st.RecipeHits, st.RecipeMisses = s.build.Stats()
	st.CompiledHits, st.CompiledMisses, st.CompiledNodes = s.build.Compiled()
	return st
}
