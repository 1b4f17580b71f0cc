package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/memo"
	"repro/internal/submod"
	"repro/internal/tpcd"
	"repro/internal/volcano"
)

func bq2Optimizer(t testing.TB) *volcano.Optimizer {
	t.Helper()
	return bqOptimizer(t, 2)
}

// bqOptimizer is a fresh optimizer over batch query BQi at scale factor 1.
func bqOptimizer(t testing.TB, i int) *volcano.Optimizer {
	t.Helper()
	opt, err := volcano.NewOptimizer(tpcd.Catalog(1), cost.Default(), tpcd.BQ(i))
	if err != nil {
		t.Fatalf("NewOptimizer: %v", err)
	}
	return opt
}

func TestStrategyStrings(t *testing.T) {
	want := map[Strategy]string{
		Volcano:            "Volcano",
		Greedy:             "Greedy",
		LazyGreedyStrategy: "LazyGreedy",
		MarginalGreedy:     "MarginalGreedy",
		LazyMarginalGreedy: "LazyMarginalGreedy",
		MaterializeAll:     "MaterializeAll",
		Exhaustive:         "Exhaustive",
	}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d renders %q, want %q", s, s.String(), w)
		}
	}
}

func TestAllStrategiesNeverWorseThanVolcano(t *testing.T) {
	opt := bq2Optimizer(t)
	v := RunWith(context.Background(), opt, Volcano, Config{})
	for _, s := range []Strategy{Greedy, LazyGreedyStrategy, MarginalGreedy, LazyMarginalGreedy} {
		r := RunWith(context.Background(), opt, s, Config{})
		if r.Cost > v.Cost+1e-6 {
			t.Errorf("%v cost %.1f worse than Volcano %.1f", s, r.Cost, v.Cost)
		}
		if r.Benefit != r.VolcanoCost-r.Cost {
			t.Errorf("%v benefit inconsistent", s)
		}
	}
}

func TestLazyVariantsMatchEager(t *testing.T) {
	opt := bq2Optimizer(t)
	g := RunWith(context.Background(), opt, Greedy, Config{})
	lg := RunWith(context.Background(), opt, LazyGreedyStrategy, Config{})
	if !equalIDs(g.Materialized, lg.Materialized) {
		t.Errorf("LazyGreedy picked %v, Greedy picked %v", lg.Materialized, g.Materialized)
	}
	m := RunWith(context.Background(), opt, MarginalGreedy, Config{})
	lm := RunWith(context.Background(), opt, LazyMarginalGreedy, Config{})
	if !equalIDs(m.Materialized, lm.Materialized) {
		t.Errorf("LazyMarginalGreedy picked %v, MarginalGreedy picked %v", lm.Materialized, m.Materialized)
	}
}

func TestVolcanoMaterializesNothing(t *testing.T) {
	opt := bq2Optimizer(t)
	v := RunWith(context.Background(), opt, Volcano, Config{})
	if len(v.Materialized) != 0 || v.Benefit != 0 {
		t.Errorf("Volcano result %+v", v)
	}
}

func TestMaterializeAllIsWorseHere(t *testing.T) {
	// The paper notes materializing everything "can be horribly
	// inefficient"; on BQ2 it must lose to MarginalGreedy.
	opt := bq2Optimizer(t)
	all := RunWith(context.Background(), opt, MaterializeAll, Config{})
	mg := RunWith(context.Background(), opt, MarginalGreedy, Config{})
	if all.Cost < mg.Cost {
		t.Errorf("MaterializeAll %.1f unexpectedly beats MarginalGreedy %.1f", all.Cost, mg.Cost)
	}
	if len(all.Materialized) != len(opt.Shareable()) {
		t.Errorf("MaterializeAll materialized %d of %d", len(all.Materialized), len(opt.Shareable()))
	}
}

func TestExhaustiveDominatesOnExample1(t *testing.T) {
	opt := newExample1Optimizer(t)
	if n := len(opt.Shareable()); n > 20 {
		t.Skipf("universe too large for exhaustive: %d", n)
	}
	ex := RunWith(context.Background(), opt, Exhaustive, Config{})
	for _, s := range []Strategy{Greedy, MarginalGreedy} {
		r := RunWith(context.Background(), opt, s, Config{})
		if r.Cost < ex.Cost-1e-6 {
			t.Errorf("%v cost %.1f beats exhaustive %.1f", s, r.Cost, ex.Cost)
		}
	}
}

func TestRunKRespectsBudgetAndReduction(t *testing.T) {
	opt := bq2Optimizer(t)
	for _, k := range []int{1, 2, 3} {
		full := RunK(opt, k, false)
		if len(full.Materialized) > k {
			t.Errorf("k=%d materialized %d", k, len(full.Materialized))
		}
		if tel := full.Telemetry; tel.BCCalls < tel.OracleCalls || tel.TotalTime != full.OptTime {
			t.Errorf("k=%d: RunK telemetry not assembled like RunWith's: %+v", k, tel)
		}
		reduced := RunK(opt, k, true)
		if !equalIDs(full.Materialized, reduced.Materialized) {
			t.Errorf("k=%d: Theorem 4 violated: full %v != reduced %v",
				k, full.Materialized, reduced.Materialized)
		}
	}
}

func TestBenefitFuncIsNormalized(t *testing.T) {
	opt := bq2Optimizer(t)
	f := NewBenefitFuncCtx(context.Background(), opt)
	if v := f.Eval(submod.Set{}); v != 0 {
		t.Errorf("mb(∅) = %v, want 0", v)
	}
	if f.N() != len(opt.Shareable()) {
		t.Errorf("universe size %d != shareable count %d", f.N(), len(opt.Shareable()))
	}
}

func TestBenefitEqualsCostDrop(t *testing.T) {
	opt := bq2Optimizer(t)
	f := NewBenefitFuncCtx(context.Background(), opt)
	for e := 0; e < f.N(); e++ {
		mb := f.Eval(submod.NewSet(e))
		bc := opt.BestCost(opt.NewNodeSet(f.ToNodes(submod.NewSet(e))...))
		if diff := mb - (f.Base() - bc); diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("element %d: mb=%v but bc drop=%v", e, mb, f.Base()-bc)
		}
	}
}

func TestOracleCallsReported(t *testing.T) {
	opt := bq2Optimizer(t)
	r := RunWith(context.Background(), opt, MarginalGreedy, Config{})
	if r.OracleCalls <= 0 {
		t.Errorf("OracleCalls = %d", r.OracleCalls)
	}
	if r.OptTime <= 0 {
		t.Errorf("OptTime = %v", r.OptTime)
	}
}

func equalIDs(a, b []memo.GroupID) bool {
	if len(a) != len(b) {
		return false
	}
	seen := map[memo.GroupID]bool{}
	for _, id := range a {
		seen[id] = true
	}
	for _, id := range b {
		if !seen[id] {
			return false
		}
	}
	return true
}

func TestBudgetRunWithZeroOracleCalls(t *testing.T) {
	opt := bq2Optimizer(t)
	for _, s := range []Strategy{Greedy, MarginalGreedy, LazyMarginalGreedy, MaterializeAll, VolcanoSH} {
		r := RunWith(context.Background(), opt, s, Config{}.LimitOracleCalls(0))
		if len(r.Materialized) != 0 {
			t.Errorf("%v: zero budget materialized %v", s, r.Materialized)
		}
		if r.Telemetry.Stopped != submod.StopCallBudget {
			t.Errorf("%v: Stopped = %v, want %v", s, r.Telemetry.Stopped, submod.StopCallBudget)
		}
		if r.OracleCalls != 0 {
			t.Errorf("%v: spent %d oracle calls under zero budget", s, r.OracleCalls)
		}
		if r.Cost != r.VolcanoCost || r.Benefit != 0 {
			t.Errorf("%v: empty set must price at bc(∅): cost %v vs %v", s, r.Cost, r.VolcanoCost)
		}
	}
}

func TestBudgetRunWithMatchesRunWhenOff(t *testing.T) {
	opt := bq2Optimizer(t)
	for _, s := range []Strategy{Volcano, Greedy, LazyGreedyStrategy, MarginalGreedy, LazyMarginalGreedy, MaterializeAll, VolcanoSH} {
		plain := RunWith(context.Background(), opt, s, Config{})
		with := RunWith(context.Background(), opt, s, Config{})
		if !equalIDs(plain.Materialized, with.Materialized) || plain.Cost != with.Cost {
			t.Errorf("%v: RunWith diverged: %v/%v vs %v/%v",
				s, with.Materialized, with.Cost, plain.Materialized, plain.Cost)
		}
		if with.Telemetry.Stopped != submod.StopNone {
			t.Errorf("%v: unbudgeted run reports Stopped=%v", s, with.Telemetry.Stopped)
		}
		if s != Volcano && with.Telemetry.BCCalls <= 0 {
			t.Errorf("%v: telemetry BCCalls = %d", s, with.Telemetry.BCCalls)
		}
	}
}

func TestBudgetTelemetryPhases(t *testing.T) {
	opt := bq2Optimizer(t)
	r := RunWith(context.Background(), opt, MarginalGreedy, Config{})
	tl := r.Telemetry
	if tl.OracleCalls != r.OracleCalls || tl.Rounds <= 0 {
		t.Errorf("telemetry inconsistent: %+v (oracle calls %d)", tl, r.OracleCalls)
	}
	if tl.CacheHitRate < 0 || tl.CacheHitRate > 1 {
		t.Errorf("hit rate %v out of range", tl.CacheHitRate)
	}
	if tl.SetupTime < 0 || tl.SearchTime < 0 || tl.FinalizeTime < 0 || tl.TotalTime < tl.SearchTime {
		t.Errorf("phase times inconsistent: %+v", tl)
	}
}

// A fresh run is a resume from the start checkpoint, on the real oracle: for
// every lazy driver over BQ1–6 the driver call and submod.ResumeLazy from
// submod.Start agree on the set, its value, every scan counter and the oracle
// calls spent.
func TestFreshRunIsResumeFromStartBQ(t *testing.T) {
	drivers := map[string]func(o *submod.Oracle) submod.Result{
		"Greedy":             submod.Greedy,
		"LazyGreedy":         submod.LazyGreedy,
		"MarginalGreedy":     func(o *submod.Oracle) submod.Result { return submod.MarginalGreedy(submod.DecomposeStar(o)) },
		"LazyMarginalGreedy": func(o *submod.Oracle) submod.Result { return submod.LazyMarginalGreedy(submod.DecomposeStar(o)) },
	}
	oracle := func(i int) *submod.Oracle {
		opt, err := volcano.NewOptimizer(tpcd.Catalog(1), cost.Default(), tpcd.BQ(i))
		if err != nil {
			t.Fatalf("BQ%d: %v", i, err)
		}
		return submod.NewOracle(NewBenefitFuncCtx(context.Background(), opt))
	}
	for i := 1; i <= 6; i++ {
		for name, run := range drivers {
			strat, err := strategyOfAlgorithm(name)
			if err != nil || !strat.Resumable() {
				t.Fatalf("%s: not a resumable strategy (%v)", name, err)
			}
			refO, o := oracle(i), oracle(i)
			ref := run(refO)
			var d *submod.Decomposition
			if strat == MarginalGreedy || strat == LazyMarginalGreedy {
				d = submod.DecomposeStar(o)
			}
			got, err := submod.ResumeLazy(o, submod.Start(name, o.N(), d))
			if err != nil {
				t.Fatalf("BQ%d %s: resume from start: %v", i, name, err)
			}
			if !got.Set.Equal(ref.Set) || got.Value != ref.Value || got.Stopped != submod.StopNone ||
				got.Iterations != ref.Iterations || got.Pruned != ref.Pruned || got.Stale != ref.Stale || got.Reused != ref.Reused {
				t.Fatalf("BQ%d %s: resume from start %+v, driver %+v", i, name, got, ref)
			}
			if o.Calls != refO.Calls {
				t.Fatalf("BQ%d %s: resume from start spent %d oracle calls, the driver %d", i, name, o.Calls, refO.Calls)
			}
		}
	}
}

// yielder is a scripted scheduler hold: it asks for the slot when ask says
// so, and its Yield waits for wait to return (nil: the slot comes back).
type yielder struct {
	ask  func() bool
	wait func() error
}

func (y yielder) PreemptRequested() bool { return y.ask() }

func (y yielder) Yield(context.Context) error { return y.wait() }

// neverRegranted is a Yield whose slot never comes back.
func neverRegranted() error { return errors.New("no re-grant") }

// TestPreemptPrecedence pins which stop wins when a failed yield lands on
// the same round as another stop. The Yielder is polled at the stop check
// after the round's Progress report, after the context and before the call
// budget: a context the report cancelled is already done at the check and
// wins (StopCancelled), while a call budget the round spent loses
// (StopPreempted). Either way the run stops at that round boundary.
func TestPreemptPrecedence(t *testing.T) {
	for _, s := range []Strategy{Greedy, LazyGreedyStrategy, MarginalGreedy, LazyMarginalGreedy} {
		var calls []int // oracle calls at each progress report of the full run
		RunWith(context.Background(), bq2Optimizer(t), s, Config{Progress: func(p submod.Progress) { calls = append(calls, p.OracleCalls) }})
		if len(calls) == 0 {
			t.Fatalf("%v: no progress report", s)
		}
		check := func(r int, what string, got Result, want submod.StopReason) {
			t.Helper()
			if got.Stopped() != want || got.OracleCalls != calls[r-1] || got.Telemetry.Rounds != r {
				t.Errorf("%v report %d, %s: stopped %v after %d calls and %d rounds, want %v after %d and %d",
					s, r, what, got.Stopped(), got.OracleCalls, got.Telemetry.Rounds, want, calls[r-1], r)
			}
		}
		budgetRounds := 0
		for r := 1; r <= len(calls); r++ {
			reports := 0
			fails := yielder{ask: func() bool { return reports >= r }, wait: neverRegranted}
			ctx, cancel := context.WithCancel(context.Background())
			got := RunWith(ctx, bq2Optimizer(t), s, Config{
				Progress: func(submod.Progress) {
					if reports++; reports == r {
						cancel()
					}
				},
				Yielder: fails,
			})
			cancel()
			check(r, "Progress cancels the context", got, submod.StopCancelled)

			// A budget of the calls at report r runs out on round r only
			// when the round's own selection spent the last call; otherwise
			// the run stops before round r and there is nothing to race.
			budget := Config{}.LimitOracleCalls(calls[r-1])
			if RunWith(context.Background(), bq2Optimizer(t), s, budget).Telemetry.Rounds != r {
				continue
			}
			budgetRounds++
			reports = 0
			budget.Progress = func(submod.Progress) { reports++ }
			budget.Yielder = fails
			check(r, "the call budget runs out", RunWith(context.Background(), bq2Optimizer(t), s, budget), submod.StopPreempted)
		}
		if budgetRounds == 0 {
			t.Errorf("%v: no round spent the call budget", s)
		}
	}
}

// A pause costs the run no budget and no phase time: a run whose one yield
// blocks longer than its TimeBudget — and at least 20× longer than the run
// takes unpaused — completes, bit-identical to the unpaused run, and its
// OptTime and phase times leave the pause out. The budget is set far above
// the unpaused run time, so only a clock that counted the pause could stop
// the run; every timing assertion is an ordering, none an absolute number.
func TestPauseIsNotCharged(t *testing.T) {
	for _, s := range []Strategy{Greedy, LazyMarginalGreedy} {
		ref := RunWith(context.Background(), bq2Optimizer(t), s, Config{})
		budget := max(200*time.Millisecond, 40*ref.OptTime)
		hold := budget + max(100*time.Millisecond, 20*ref.OptTime)
		var paused time.Duration
		yields := 0
		y := yielder{
			ask: func() bool { return yields == 0 },
			wait: func() error {
				yields++
				start := time.Now()
				time.Sleep(hold)
				paused = time.Since(start)
				return nil
			},
		}
		start := time.Now()
		got := RunWith(context.Background(), bq2Optimizer(t), s, Config{TimeBudget: budget, Yielder: y})
		wall := time.Since(start)
		if yields != 1 {
			t.Fatalf("%v: %d yields, want 1", s, yields)
		}
		if got.Stopped() != submod.StopNone {
			t.Fatalf("%v: paused %v against a %v budget, the run stopped with %v", s, paused, budget, got.Stopped())
		}
		if got.Cost != ref.Cost || got.Benefit != ref.Benefit || got.Telemetry.Work() != ref.Telemetry.Work() {
			t.Fatalf("%v: paused run %v (%+v), unpaused %v (%+v)", s, got.Cost, got.Telemetry.Work(), ref.Cost, ref.Telemetry.Work())
		}
		tel := got.Telemetry
		if tel.TotalTime != got.OptTime || tel.SetupTime+tel.SearchTime+tel.FinalizeTime != tel.TotalTime {
			t.Fatalf("%v: phases %v + %v + %v, total %v, OptTime %v", s, tel.SetupTime, tel.SearchTime, tel.FinalizeTime, tel.TotalTime, got.OptTime)
		}
		if got.OptTime+paused > wall || tel.SearchTime >= paused {
			t.Fatalf("%v: OptTime %v (search %v) + pause %v against a wall of %v: the pause was clocked", s, got.OptTime, tel.SearchTime, paused, wall)
		}
	}
}

// RunK with k ≤ 0 chooses nothing, and the Theorem 4 reduction agrees
// without pricing anything: k = 0 with and without it is the empty set, on
// each of BQ1–6.
func TestRunKZero(t *testing.T) {
	for i := 1; i <= 6; i++ {
		plain, reduced := RunK(bqOptimizer(t, i), 0, false), RunK(bqOptimizer(t, i), 0, true)
		if len(plain.Materialized) != 0 || len(reduced.Materialized) != 0 || plain.Cost != reduced.Cost ||
			plain.Telemetry.Work() != reduced.Telemetry.Work() {
			t.Fatalf("BQ%d: RunK(0) = %v (%+v), with the reduction %v (%+v)", i,
				plain.Materialized, plain.Telemetry.Work(), reduced.Materialized, reduced.Telemetry.Work())
		}
	}
}
