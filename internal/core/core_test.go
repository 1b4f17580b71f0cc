package core

import (
	"context"
	"testing"

	"repro/internal/cost"
	"repro/internal/memo"
	"repro/internal/submod"
	"repro/internal/tpcd"
	"repro/internal/volcano"
)

func bq2Optimizer(t testing.TB) *volcano.Optimizer {
	t.Helper()
	opt, err := volcano.NewOptimizer(tpcd.Catalog(1), cost.Default(), tpcd.BQ(2))
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
