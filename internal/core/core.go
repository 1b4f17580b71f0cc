// Package core applies the paper's algorithms to multi-query optimization:
// it exposes the materialization-benefit function mb(S) = bc(∅) − bc(S)
// over the shareable nodes of a combined AND-OR DAG as a normalized
// submodular function, and runs the strategies compared in the paper's
// experiments — stand-alone Volcano (no MQO), the benefit Greedy of Roy et
// al., the paper's MarginalGreedy (with its Lazy variant), plus a
// materialize-everything baseline and an exhaustive optimizer for small
// instances.
//
// RunWith is the entry point: it accepts a context and a Config carrying a
// wall-clock budget, an oracle-call budget and a progress callback, checks
// them between greedy rounds, and reports per-phase telemetry in the
// Result. The zero Config runs unbudgeted.
package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/memo"
	"repro/internal/physical"
	"repro/internal/submod"
	"repro/internal/volcano"
)

// Strategy selects an MQO algorithm.
type Strategy int

// Strategies.
const (
	// Volcano performs no multi-query optimization: every query gets its
	// locally optimal plan (S = ∅).
	Volcano Strategy = iota
	// Greedy is Algorithm 1 (Roy et al. 2000): repeatedly materialize the
	// node with the largest absolute benefit.
	Greedy
	// LazyGreedyStrategy is Greedy with the Minoux heap under the
	// monotonicity heuristic.
	LazyGreedyStrategy
	// MarginalGreedy is the paper's Algorithm 2 with the Proposition 1
	// decomposition.
	MarginalGreedy
	// LazyMarginalGreedy is MarginalGreedy with the Section 5.2 heap.
	LazyMarginalGreedy
	// MaterializeAll materializes every shareable node (the heuristic the
	// paper attributes to Silva et al., noted as potentially "horribly
	// inefficient").
	MaterializeAll
	// Exhaustive enumerates all materialization sets (≤ 20 shareable
	// nodes).
	Exhaustive
	// VolcanoSH shares only subexpressions that appear in the locally
	// optimal plans (the post-optimization baseline of Subramanian &
	// Venkataraman / Roy et al.'s Volcano-SH).
	VolcanoSH
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case Volcano:
		return "Volcano"
	case Greedy:
		return "Greedy"
	case LazyGreedyStrategy:
		return "LazyGreedy"
	case MarginalGreedy:
		return "MarginalGreedy"
	case LazyMarginalGreedy:
		return "LazyMarginalGreedy"
	case MaterializeAll:
		return "MaterializeAll"
	case Exhaustive:
		return "Exhaustive"
	case VolcanoSH:
		return "Volcano-SH"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Config bounds and instruments one optimization run. The zero value means
// "no budgets, no callbacks".
type Config struct {
	// TimeBudget caps the wall-clock time of the run (0 = none). It is
	// enforced as a context deadline: the greedy loop stops between oracle
	// rounds, and a concurrent bestCost batch already in flight stops
	// between individual evaluations.
	TimeBudget time.Duration
	// Progress, when non-nil, receives a report after every completed
	// greedy round. It runs on the optimizing goroutine, so cancelling the
	// run's context from inside it stops the run at a deterministic round.
	Progress func(submod.Progress)
	// WarmOracle lets the run consume memoized mb(S) values published to
	// the attached SharedCache by earlier runs, skipping those oracle
	// calls entirely (they surface as Telemetry.SharedOracleHits). Runs
	// always *publish* their memoized values; consuming is opt-in because
	// it changes the run's call accounting — budgets, quota charges and
	// fault-injection surfaces — which cold-replay determinism (and the
	// serving tier's bit-identical-replay contract) otherwise relies on.
	// The serving tier enables it only for sessions warm-started from an
	// imported cache snapshot.
	WarmOracle bool
	// PreemptSignal, when non-nil, is polled after every completed greedy
	// round (from the same between-rounds hook as Progress). When it
	// returns true the run's context is cancelled with submod.ErrPreempted
	// as the cause, so the run stops at the round boundary with
	// Telemetry.Stopped == submod.StopPreempted and — for a resumable lazy
	// strategy — a Checkpoint that continues it bit-identically. Polling
	// only at round boundaries is what keeps Σ segment telemetry equal to
	// an unpreempted run's: a mid-batch abort would re-price the
	// interrupted round's pops on resume.
	PreemptSignal func() bool

	maxCalls    int
	hasMaxCalls bool
}

// LimitOracleCalls returns a copy of the config with an oracle-call budget
// of n memoized-distinct mb(S) evaluations; n = 0 forbids the algorithm
// any oracle call, so the strategies return the empty set. The unexported
// carrier keeps the zero-value Config unlimited.
func (c Config) LimitOracleCalls(n int) Config {
	if n < 0 {
		n = 0
	}
	c.maxCalls, c.hasMaxCalls = n, true
	return c
}

// Result is the outcome of one MQO run.
type Result struct {
	Strategy     Strategy
	Materialized []memo.GroupID
	Set          physical.NodeSet // the chosen materialization set
	Cost         float64          // bc(S), milliseconds
	VolcanoCost  float64          // bc(∅), milliseconds
	Benefit      float64          // mb(S)
	OptTime      time.Duration
	OracleCalls  int       // memoized-distinct bestCost evaluations
	Telemetry    Telemetry // per-phase accounting and stop reason
	// Checkpoint, set when a resumable lazy strategy stopped early, is the
	// round-boundary snapshot ResumeWith continues from bit-identically.
	Checkpoint *submod.Checkpoint
	// Fault is the panic a batch worker recovered when Telemetry.Stopped is
	// StopPanic (a *faultinject.PanicError). A faulted result carries the
	// committed greedy prefix and its checkpoint but no Cost/Benefit: the
	// searcher's caches may be inconsistent, so it is not consulted again.
	Fault error
}

// MatSet returns the chosen materialization set.
func (r Result) MatSet() physical.NodeSet { return r.Set }

// Stopped reports why the run ended early (submod.StopNone for a complete
// run).
func (r Result) Stopped() submod.StopReason { return r.Telemetry.Stopped }

// BenefitFunc adapts mb(S) over the optimizer's shareable nodes to the
// submod.Function interface; element i corresponds to Nodes[i]. It also
// implements submod.BatchFunction: a batch of candidate sets is evaluated
// concurrently on the searcher's worker pool, with results bit-identical
// to sequential evaluation. The attached context aborts in-flight batches
// between individual evaluations when cancelled.
type BenefitFunc struct {
	Opt   *volcano.Optimizer
	Nodes []memo.GroupID
	base  float64
	ctx   context.Context
}

// NewBenefitFuncCtx builds the benefit function (one bc(∅) evaluation)
// with a context that cancels batched evaluations between individual
// bc(S) calls. When bc(∅) panics, Fault reports the panic and the function
// must not be used.
func NewBenefitFuncCtx(ctx context.Context, opt *volcano.Optimizer) *BenefitFunc {
	base, _ := bestCost(opt, physical.NodeSet{})
	return &BenefitFunc{
		Opt:   opt,
		Nodes: opt.Shareable(),
		base:  base,
		ctx:   ctx,
	}
}

// bestCost is bc(set) priced the way every evaluation of a run is: on the
// searcher's batch path, past the OracleEval injection point and
// panic-isolated, as a batch of one that is never cancelled. ok is false
// when the evaluation panicked; the searcher then holds the fault
// (TakeFault).
func bestCost(opt *volcano.Optimizer, set physical.NodeSet) (float64, bool) {
	costs, ok := opt.Searcher.BestCostBatchCtx(context.Background(), []physical.NodeSet{set})
	if !ok {
		return 0, false
	}
	return costs[0], true
}

// N returns the number of shareable nodes.
func (f *BenefitFunc) N() int { return len(f.Nodes) }

// Base returns bc(∅).
func (f *BenefitFunc) Base() float64 { return f.base }

// toNodeSet converts an element set to a materialization bitset.
func (f *BenefitFunc) toNodeSet(s submod.Set) physical.NodeSet {
	ns := f.Opt.NewNodeSet()
	s.ForEach(func(e int) { ns.Add(f.Nodes[e]) })
	return ns
}

// Eval returns mb(S) = bc(∅) − bc(S), ignoring the context. When the
// evaluation panics it returns NaN and Fault reports the panic.
func (f *BenefitFunc) Eval(s submod.Set) float64 {
	c, ok := bestCost(f.Opt, f.toNodeSet(s))
	if !ok {
		return math.NaN()
	}
	return f.base - c
}

// EvalBatch returns mb(S) for every set, evaluating the underlying
// bestCost oracle calls concurrently (one per worker context). When the
// attached context is cancelled mid-batch it reports ok=false together
// with the completed prefix of the benefits (possibly empty) — exact,
// deterministic values the caller may commit, per the
// submod.BatchFunction contract.
func (f *BenefitFunc) EvalBatch(sets []submod.Set) ([]float64, bool) {
	mats := make([]physical.NodeSet, len(sets))
	for i, s := range sets {
		mats[i] = f.toNodeSet(s)
	}
	costs, ok := f.Opt.Searcher.BestCostBatchCtx(f.ctx, mats)
	out := make([]float64, len(costs))
	for i, c := range costs {
		out[i] = f.base - c
	}
	return out, ok
}

// Fault drains the panic the searcher's most recent evaluation recovered,
// if any (submod.Faulter): the oracle stops the run with StopPanic when
// this is non-nil.
func (f *BenefitFunc) Fault() error { return f.Opt.Searcher.TakeFault() }

// Interacts reports whether materializing node x can change node e's
// marginal benefit: true exactly when some query root's cone contains
// both nodes (physical.Searcher.SharesQueryRoot). It implements
// submod.InteractionFunction, letting the lazy greedy drivers carry
// marginals of provably untouched candidates across selections without
// re-evaluating them.
func (f *BenefitFunc) Interacts(e, x int) bool {
	return f.Opt.Searcher.SharesQueryRoot(f.Nodes[e], f.Nodes[x])
}

// ToNodes converts an element set to group ids (sorted by element index).
func (f *BenefitFunc) ToNodes(s submod.Set) []memo.GroupID {
	var out []memo.GroupID
	s.ForEach(func(e int) { out = append(out, f.Nodes[e]) })
	return out
}

// benefitL2 adapts a physical.SharedCache to the submod.MemoL2 contract:
// memoized mb(S) values live next to the (group, order, mask) cost entries
// under the searcher's fingerprint namespace, so they are invalidated,
// exported and imported together with the cost cache — a snapshot-warmed
// replica skips whole oracle calls, not just per-key cost lookups. Values
// always publish; reads are gated on warm so a run that has not opted in
// (Config.WarmOracle) keeps cold call accounting even over a populated
// cache.
type benefitL2 struct {
	c    *physical.SharedCache
	ns   uint64
	warm bool
}

func (b benefitL2) Get(k uint64) (float64, bool) {
	if !b.warm {
		return 0, false
	}
	return b.c.GetBenefit(b.ns, k)
}
func (b benefitL2) Put(k uint64, v float64) { b.c.PutBenefit(b.ns, k, v) }

// RunWith executes one strategy against a prepared optimizer under a
// context and a Config, and reports the chosen materializations, costs and
// optimization time. Cancellation and budgets are honored between oracle
// rounds (and between individual evaluations of an in-flight concurrent
// batch), so an interrupted run still returns a deterministic best-so-far
// Result with its Telemetry explaining where the time and oracle calls
// went. With no budget set the chosen sets and costs are bit-identical to
// the seed-oracle goldens.
func RunWith(ctx context.Context, opt *volcano.Optimizer, strat Strategy, cfg Config) Result {
	res, err := run(ctx, opt, strat, cfg, nil)
	if err != nil {
		// run only fails validating a resume checkpoint, and none was given.
		panic("core: " + err.Error())
	}
	return res
}

// Resumable reports whether the strategy runs on a lazy driver
// (submod.Resumable): stopped early it leaves a checkpoint ResumeWith
// continues bit-identically, which is also what makes it safe to preempt.
func (s Strategy) Resumable() bool { return submod.Resumable(s.String()) }

// StrategyOfAlgorithm maps a checkpoint's algorithm name back to its
// strategy; only the resumable lazy drivers have one.
func StrategyOfAlgorithm(name string) (Strategy, error) {
	for s := Volcano; s <= VolcanoSH; s++ { // first and last declared
		if s.Resumable() && s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("core: %q is not a resumable strategy", name)
}

// ResumeWith continues a run from a round-boundary checkpoint instead of
// restarting it. The strategy is the checkpoint's; budgets, cancellation
// and telemetry work exactly as in RunWith, and the resumed run can itself
// stop and export a further checkpoint. Against the same search space the
// final materialization set is bit-identical to a run that was never
// interrupted; Telemetry counts only this continuation's oracle work,
// while Rounds/Pruned/Stale/Reused continue the interrupted run's counts.
func ResumeWith(ctx context.Context, opt *volcano.Optimizer, cp *submod.Checkpoint, cfg Config) (Result, error) {
	if cp == nil {
		return Result{}, fmt.Errorf("core: resume requires a checkpoint")
	}
	strat, err := StrategyOfAlgorithm(cp.Algorithm)
	if err != nil {
		return Result{}, err
	}
	return run(ctx, opt, strat, cfg, cp)
}

// run is the shared body of RunWith and ResumeWith.
func run(ctx context.Context, opt *volcano.Optimizer, strat Strategy, cfg Config, resume *submod.Checkpoint) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.TimeBudget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.TimeBudget)
		defer cancel()
	}
	if cfg.PreemptSignal != nil {
		// Preemption cancels with a cause, checked only between completed
		// rounds (the Progress hook), so the stop lands exactly on a
		// checkpointable round boundary.
		var cancel context.CancelCauseFunc
		ctx, cancel = context.WithCancelCause(ctx)
		defer cancel(nil)
		signal, inner := cfg.PreemptSignal, cfg.Progress
		cfg.Progress = func(p submod.Progress) {
			if inner != nil {
				inner(p)
			}
			if signal() {
				cancel(submod.ErrPreempted)
			}
		}
	}
	if strat == VolcanoSH {
		return runVolcanoSH(ctx, opt, cfg), nil
	}
	mt := startMeter(opt)
	f := NewBenefitFuncCtx(ctx, opt)
	if err := f.Fault(); err != nil {
		return mt.faulted(strat, err), nil
	}
	oracle := submod.NewOracle(f)
	// With a session SharedCache attached, memoized oracle values from
	// earlier runs over the same search space (namespaced by the searcher
	// fingerprint, so a different batch, catalog or flag set can never
	// alias) are published for later runs — and, for a warm-started run
	// (cfg.WarmOracle), served without re-running bestCost, so it spends
	// oracle calls only on sets no prior run evaluated.
	if sc := opt.Searcher.Shared(); sc != nil {
		oracle.L2 = benefitL2{c: sc, ns: opt.Searcher.Fingerprint(), warm: cfg.WarmOracle}
	}
	oracle.SetControl(&submod.Control{
		Ctx:         ctx,
		MaxCalls:    cfg.maxCalls,
		HasMaxCalls: cfg.hasMaxCalls,
		OnProgress:  cfg.Progress,
	})
	var r submod.Result
	setupEnd := time.Now()
	if resume != nil {
		var err error
		r, err = submod.ResumeLazy(oracle, resume)
		if err != nil {
			return Result{}, err
		}
	} else {
		switch strat {
		case Volcano:
			r = submod.Result{Set: submod.Set{}}
		case Greedy:
			r = submod.Greedy(oracle)
		case LazyGreedyStrategy:
			r = submod.LazyGreedy(oracle)
		case MarginalGreedy:
			d := submod.DecomposeStar(oracle)
			setupEnd = time.Now()
			r = submod.MarginalGreedy(d)
		case LazyMarginalGreedy:
			d := submod.DecomposeStar(oracle)
			setupEnd = time.Now()
			r = submod.LazyMarginalGreedy(d)
		case MaterializeAll:
			// No oracle rounds to bound, but the budget contract ("n = 0
			// forbids any materialization") and cancellation still apply.
			if oracle.Interrupted() {
				r = submod.Result{Stopped: oracle.StopReason()}
			} else {
				r = submod.Result{Set: oracle.Universe()}
			}
		case Exhaustive:
			r = submod.Exhaustive(oracle)
		default:
			panic("core: unknown strategy")
		}
	}
	searchEnd := time.Now()
	return mt.finish(searched(strat, f, oracle, r), setupEnd, searchEnd), nil
}

// meter is the start-of-run snapshot every driver takes: the clock and the
// searcher's cumulative counters, so a run's Telemetry is the delta over
// exactly its own work however warm the searcher already was.
type meter struct {
	opt    *volcano.Optimizer
	start  time.Time
	before physical.Stats
}

func startMeter(opt *volcano.Optimizer) meter {
	return meter{opt: opt, start: time.Now(), before: opt.Searcher.Stats}
}

// searched is the part of a Result a submod driver's search decides, read
// off its oracle and submod.Result: what meter.finish takes as input.
func searched(strat Strategy, f *BenefitFunc, oracle *submod.Oracle, r submod.Result) Result {
	return Result{
		Strategy:     strat,
		Materialized: f.ToNodes(r.Set),
		VolcanoCost:  f.Base(),
		OracleCalls:  oracle.Calls,
		Checkpoint:   r.Checkpoint,
		Fault:        oracle.Fault(),
		Telemetry: Telemetry{
			SharedOracleHits: oracle.L2Hits,
			Rounds:           r.Iterations,
			Pruned:           r.Pruned,
			Stale:            r.Stale,
			Reused:           r.Reused,
			Stopped:          r.Stopped,
		},
	}
}

// finish completes a Result whose search part the driver filled in
// (Strategy, Materialized, VolcanoCost, OracleCalls, Checkpoint, Fault and
// the Telemetry round counters): it prices the chosen set (a faulted
// run's searcher is not consulted again, and a panic in the pricing faults
// the run) and fills the counter deltas and phase times — the one place
// they are put together. setupEnd and searchEnd split the clock into
// setup, search and finalize.
func (mt meter) finish(res Result, setupEnd, searchEnd time.Time) Result {
	res.Set = mt.opt.NewNodeSet(res.Materialized...)
	if res.Fault == nil {
		if c, ok := bestCost(mt.opt, res.Set); ok {
			res.Cost = c
			res.Benefit = res.VolcanoCost - res.Cost
		} else {
			res.Fault, res.Telemetry.Stopped = mt.opt.Searcher.TakeFault(), submod.StopPanic
		}
	}
	end := time.Now()
	res.OptTime = end.Sub(mt.start)
	tel := &res.Telemetry
	tel.OracleCalls = res.OracleCalls
	did := mt.opt.Searcher.Stats.Sub(mt.before)
	tel.BCCalls, tel.CacheHits, tel.SharedHits, tel.ComputedKeys = did.BCCalls, did.CacheHits, did.SharedHits, did.ComputedKey
	tel.SetupTime = setupEnd.Sub(mt.start)
	tel.SearchTime = searchEnd.Sub(setupEnd)
	tel.FinalizeTime = end.Sub(searchEnd)
	tel.TotalTime = end.Sub(mt.start)
	tel.setHitRate()
	return res
}

// faulted is the Result of a run whose bc(∅) panicked: there is nothing to
// search from and nothing to resume.
func (mt meter) faulted(strat Strategy, err error) Result {
	now := time.Now()
	return mt.finish(Result{Strategy: strat, Fault: err, Telemetry: Telemetry{Stopped: submod.StopPanic}}, now, now)
}

// RunK executes the cardinality-constrained MarginalGreedy of Section 5.3:
// at most k nodes are materialized. With reduce=true the Theorem 4
// universe-reduction preprocessing runs first; Theorem 4 guarantees the
// same output either way.
func RunK(opt *volcano.Optimizer, k int, reduce bool) Result {
	mt := startMeter(opt)
	f := NewBenefitFuncCtx(context.TODO(), opt)
	if err := f.Fault(); err != nil {
		return mt.faulted(MarginalGreedy, err)
	}
	oracle := submod.NewOracle(f)
	d := submod.DecomposeStar(oracle)
	setupEnd := time.Now()
	var r submod.Result
	if reduce {
		universe := submod.ReduceUniverse(d, k)
		r = submod.MarginalGreedyKOn(d, k, universe)
	} else {
		r = submod.MarginalGreedyK(d, k)
	}
	searchEnd := time.Now()
	return mt.finish(searched(MarginalGreedy, f, oracle, r), setupEnd, searchEnd)
}
