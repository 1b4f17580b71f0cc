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
// time budget, an oracle-call budget, a progress callback and a scheduler's
// yielder, checks them between greedy rounds, and reports per-phase
// telemetry in the Result. The zero Config runs unbudgeted.
// ResumeWith and RunK run through the same body over the same oracle.
package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
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
	// Exhaustive enumerates all materialization sets (≤ 25 shareable
	// nodes; submod.Exhaustive panics above).
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
	// TimeBudget caps the running time of the run (0 = none): the wall
	// time since it started less the time it spent paused (Yielder). It is
	// enforced by cancelling the run's context with cause
	// context.DeadlineExceeded: the greedy loop stops between oracle
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
	// Yielder, when non-nil, is the scheduler's hold on the run's slot
	// (submod.Control.Yielder): the oracle polls it at every stop check —
	// before each oracle round, the first included, and before the
	// decomposition — and when the scheduler asked for the slot the run
	// pauses there — Yield gives the slot back and waits for it — then
	// continues in place with the same oracle, searcher and caches, so its
	// result and Telemetry.Work are the unpaused run's. The pause is left
	// out of TimeBudget, the phase times and OptTime. Only a failed Yield
	// stops the run, at that check, with Telemetry.Stopped ==
	// submod.StopPreempted and — for a resumable lazy strategy — a
	// Checkpoint that ResumeWith continues bit-identically (the Start
	// checkpoint, when it stopped at the scan's first check). A context
	// already done at the check wins; a call budget spent on the round
	// before does not.
	Yielder submod.Yielder

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
	costs, ok := opt.BestCostBatchCtx(context.Background(), []physical.NodeSet{set})
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
	return run(ctx, opt, strat, cfg, strat.search)
}

// Resumable reports whether the strategy runs on a lazy driver
// (submod.Resumable): stopped early it leaves a checkpoint ResumeWith
// continues bit-identically. Pausing a run needs no checkpoint: every
// strategy may be paused at its stop checks.
func (s Strategy) Resumable() bool { return submod.Resumable(s.String()) }

// strategyOfAlgorithm maps a checkpoint's algorithm name back to its
// strategy; only the resumable lazy drivers have one.
func strategyOfAlgorithm(name string) (Strategy, error) {
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
	strat, err := strategyOfAlgorithm(cp.Algorithm)
	if err != nil {
		return Result{}, err
	}
	if err := cp.Validate(len(opt.Shareable())); err != nil {
		return Result{}, err
	}
	return run(ctx, opt, strat, cfg, func(o *submod.Oracle, _ *BenefitFunc, _ func()) submod.Result {
		r, err := submod.ResumeLazy(o, cp)
		if err != nil {
			panic("core: " + err.Error()) // validated above
		}
		return r
	}), nil
}

// RunK executes the cardinality-constrained MarginalGreedy of Section 5.3:
// at most k nodes are materialized. With reduce=true the Theorem 4
// universe-reduction preprocessing runs first; Theorem 4 guarantees the
// same output either way.
func RunK(opt *volcano.Optimizer, k int, reduce bool) Result {
	return run(context.TODO(), opt, MarginalGreedy, Config{}, func(o *submod.Oracle, _ *BenefitFunc, setupDone func()) submod.Result {
		d := submod.DecomposeStar(o)
		setupDone()
		if reduce {
			return submod.MarginalGreedyKOn(d, k, submod.ReduceUniverse(d, k))
		}
		return submod.MarginalGreedyK(d, k)
	})
}

// search is the part of a run its entry point decides: RunWith's strategy,
// ResumeWith's checkpoint or RunK's cardinality bound. It drives the run's
// oracle and returns what the driver found; setupDone marks the end of the
// setup a search needs before its first round (DecomposeStar, Volcano-SH's
// candidate order), so that work is timed as setup.
type search func(o *submod.Oracle, f *BenefitFunc, setupDone func()) submod.Result

// search dispatches the strategy to its submod driver.
func (s Strategy) search(o *submod.Oracle, f *BenefitFunc, setupDone func()) submod.Result {
	switch s {
	case Volcano:
		return submod.Result{Set: submod.Set{}}
	case Greedy:
		return submod.Greedy(o)
	case LazyGreedyStrategy:
		return submod.LazyGreedy(o)
	case MarginalGreedy, LazyMarginalGreedy:
		d := submod.DecomposeStar(o)
		setupDone()
		if s == MarginalGreedy {
			return submod.MarginalGreedy(d)
		}
		return submod.LazyMarginalGreedy(d)
	case MaterializeAll:
		// No oracle rounds to bound, but the budget contract ("n = 0
		// forbids any materialization") and cancellation still apply.
		if o.Interrupted() {
			return submod.Result{Stopped: o.StopReason()}
		}
		return submod.Result{Set: o.Universe()}
	case Exhaustive:
		return submod.Exhaustive(o)
	case VolcanoSH:
		order := volcanoSHOrder(f)
		setupDone()
		return submod.VolcanoSH(o, order)
	}
	panic("core: unknown strategy")
}

// run is the one body of every run: it meters the searcher, prices bc(∅),
// builds the oracle with its L2 and its Control — the one place every early
// stop is recorded — drives the search, and prices and accounts the result.
func run(ctx context.Context, opt *volcano.Optimizer, strat Strategy, cfg Config, drive search) Result {
	mt, ctx, stop := startMeter(ctx, opt, cfg.TimeBudget)
	defer stop()
	f := NewBenefitFuncCtx(ctx, opt)
	if err := f.Fault(); err != nil {
		return mt.faulted(strat, err)
	}
	oracle := submod.NewOracle(f)
	// With a session SharedCache attached, memoized oracle values from
	// earlier runs over the same search space (namespaced by the searcher
	// fingerprint, so a different batch, catalog or flag set can never
	// alias) are published for later runs — and, for a warm-started run
	// (cfg.WarmOracle), served without re-running bestCost, so it spends
	// oracle calls only on sets no prior run evaluated.
	if sc := opt.Shared(); sc != nil {
		oracle.L2 = benefitL2{c: sc, ns: opt.Fingerprint(), warm: cfg.WarmOracle}
	}
	ctrl := &submod.Control{Ctx: ctx, MaxCalls: cfg.maxCalls, HasMaxCalls: cfg.hasMaxCalls, OnProgress: cfg.Progress}
	if cfg.Yielder != nil {
		ctrl.Yielder = pausing{cfg.Yielder, mt}
	}
	oracle.SetControl(ctrl)
	setupEnd := mt.now()
	r := drive(oracle, f, func() { setupEnd = mt.now() })
	searchEnd := mt.now()
	return mt.finish(Result{
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
	}, setupEnd, searchEnd)
}

// volcanoSHOrder is Volcano-SH's candidate order (Roy et al., SIGMOD 2000,
// after Subramanian & Venkataraman's transient views): the shareable nodes,
// as elements of f, that the locally optimal plans — the plan of the empty
// set — compute at least twice, by use count descending, then by group id.
// Sharing only what those plans already repeat never steers plan choice
// toward sharing, which is what puts Volcano-SH between stand-alone Volcano
// and cost-based MQO.
func volcanoSHOrder(f *BenefitFunc) []int {
	uses := map[memo.GroupID]int{}
	var walk func(n *physical.PlanNode)
	walk = func(n *physical.PlanNode) {
		uses[n.Group]++
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, q := range f.Opt.Plan(physical.NodeSet{}).Queries {
		walk(q)
	}
	var order []int
	for e, id := range f.Nodes {
		if uses[id] >= 2 {
			order = append(order, e)
		}
	}
	slices.SortFunc(order, func(a, b int) int {
		ga, gb := f.Nodes[a], f.Nodes[b]
		return cmp.Or(cmp.Compare(uses[gb], uses[ga]), cmp.Compare(ga, gb))
	})
	return order
}

// meter is the start-of-run snapshot run takes: the clock and the
// searcher's cumulative counters, so a run's Telemetry is the delta over
// exactly its own work however warm the searcher already was. Its clock
// counts running time: a pause (Config.Yielder) stops it and the budget.
type meter struct {
	opt    *volcano.Optimizer
	start  time.Time
	paused time.Duration
	budget time.Duration
	cancel context.CancelCauseFunc // ends the run's context; nil without a budget
	expire *time.Timer             // calls cancel when what is left of the budget is spent
	before physical.Stats
}

// startMeter starts a run's meter and context: with a budget, ctx cancelled
// with cause context.DeadlineExceeded once it is spent. stop releases it.
func startMeter(ctx context.Context, opt *volcano.Optimizer, budget time.Duration) (mt *meter, _ context.Context, stop func()) {
	ctx, stop = cmp.Or(ctx, context.Background()), func() {}
	mt = &meter{opt: opt, start: time.Now(), budget: budget, before: opt.Stats}
	if budget > 0 {
		ctx, mt.cancel = context.WithCancelCause(ctx)
		mt.arm()
		stop = func() { mt.disarm(); mt.cancel(nil) }
	}
	return mt, ctx, stop
}

// now is the run's running time so far.
func (mt *meter) now() time.Duration { return time.Since(mt.start) - mt.paused }

// arm times what is left of the budget; with nothing left it ends the run at
// once, as a context whose deadline has already passed does.
func (mt *meter) arm() {
	if left := mt.budget - mt.now(); left > 0 {
		mt.expire = time.AfterFunc(left, func() { mt.cancel(context.DeadlineExceeded) })
	} else {
		mt.cancel(context.DeadlineExceeded)
	}
}

// disarm stops the budget's timer and reports whether it had yet to fire.
func (mt *meter) disarm() bool { return mt.expire != nil && mt.expire.Stop() }

// pausing is the run's Yielder: Config.Yielder with the meter's clock, and
// so the budget's timer, stopped while the scheduler holds the slot.
type pausing struct {
	submod.Yielder
	mt *meter
}

func (p pausing) Yield(ctx context.Context) error {
	mt, start := p.mt, time.Now()
	running := mt.disarm()
	err := p.Yielder.Yield(ctx)
	mt.paused += time.Since(start)
	if running {
		mt.arm()
	}
	return err
}

// finish completes a Result whose search part run filled in
// (Strategy, Materialized, VolcanoCost, OracleCalls, Checkpoint, Fault and
// the Telemetry round counters): it prices the chosen set (a faulted
// run's searcher is not consulted again, and a panic in the pricing faults
// the run) and fills the counter deltas and phase times — the one place
// they are put together. setupEnd and searchEnd, read off the run's clock,
// split it into setup, search and finalize.
func (mt *meter) finish(res Result, setupEnd, searchEnd time.Duration) Result {
	res.Set = mt.opt.NewNodeSet(res.Materialized...)
	if res.Fault == nil {
		if c, ok := bestCost(mt.opt, res.Set); ok {
			res.Cost = c
			res.Benefit = res.VolcanoCost - res.Cost
		} else {
			res.Fault, res.Telemetry.Stopped = mt.opt.TakeFault(), submod.StopPanic
		}
	}
	end := mt.now()
	res.OptTime = end
	tel := &res.Telemetry
	tel.OracleCalls = res.OracleCalls
	did := mt.opt.Stats.Sub(mt.before)
	tel.BCCalls, tel.CacheHits, tel.SharedHits, tel.ComputedKeys = did.BCCalls, did.CacheHits, did.SharedHits, did.ComputedKey
	tel.SetupTime = setupEnd
	tel.SearchTime = searchEnd - setupEnd
	tel.FinalizeTime = end - searchEnd
	tel.TotalTime = end
	tel.setHitRate()
	return res
}

// faulted is the Result of a run whose bc(∅) panicked: there is nothing to
// search from and nothing to resume.
func (mt *meter) faulted(strat Strategy, err error) Result {
	now := mt.now()
	return mt.finish(Result{Strategy: strat, Fault: err, Telemetry: Telemetry{Stopped: submod.StopPanic}}, now, now)
}
