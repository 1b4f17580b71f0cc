package repro

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/submod"
	"repro/internal/tpcd"
	"repro/internal/volcano"
	"repro/internal/workload"
)

// TestLazyWorkloadPropertyGrid is the property suite for the lazy/dirty-
// marked greedy drivers: across a seeded grid of generated workload shapes
// (star/chain/snowflake × σ ∈ {0.25, 0.75}) the batched-lazy
// MarginalGreedy, the sequential LazyMarginalGreedy and the batched-lazy
// Greedy must select bit-identical materialization sets — and price them
// to bit-identical costs — as the exhaustive-scan references
// (EagerMarginalGreedy / EagerGreedy), while actually exercising the lazy
// machinery (some run must report Stale re-evaluations, and the dirty-
// candidate tracking must report exact marginal reuse somewhere on the
// grid). Every driver runs on a fresh optimizer so no cache state leaks
// between the compared runs.
func TestLazyWorkloadPropertyGrid(t *testing.T) {
	cat := tpcd.Catalog(1)
	lazyEngaged, reuseEngaged := false, false
	for _, shape := range []workload.Shape{workload.Star, workload.Chain, workload.Snowflake} {
		for _, sharing := range []float64{0.25, 0.75} {
			t.Run(fmt.Sprintf("%s/sigma%g", shape, sharing), func(t *testing.T) {
				spec := workload.Spec{
					Seed:       11,
					Queries:    12,
					Shape:      shape,
					FanOut:     min(4, workload.MaxFanOut(shape)),
					Sharing:    sharing,
					SelectFrac: 0.8,
					AggFrac:    0.5,
				}
				batch := workload.MustGenerate(spec)

				type run struct {
					set  []string
					cost string
					res  submod.Result
				}
				exec := func(f func(*volcano.Optimizer) submod.Result) run {
					opt, err := volcano.NewOptimizer(cat, cost.Default(), batch)
					if err != nil {
						t.Fatal(err)
					}
					r := f(opt)
					bf := core.NewBenefitFuncCtx(context.Background(), opt) // fresh base for pricing only
					var ids []string
					for _, id := range bf.ToNodes(r.Set) {
						ids = append(ids, fmt.Sprint(id))
					}
					c := fmt.Sprintf("%.6f", bf.Base()-r.Value)
					return run{set: ids, cost: c, res: r}
				}
				marginal := func(alg func(*submod.Decomposition) submod.Result) run {
					return exec(func(opt *volcano.Optimizer) submod.Result {
						return alg(submod.DecomposeStar(submod.NewOracle(core.NewBenefitFuncCtx(context.Background(), opt))))
					})
				}
				plain := func(alg func(*submod.Oracle) submod.Result) run {
					return exec(func(opt *volcano.Optimizer) submod.Result {
						return alg(submod.NewOracle(core.NewBenefitFuncCtx(context.Background(), opt)))
					})
				}

				eagerMG := marginal(submod.EagerMarginalGreedy)
				for name, got := range map[string]run{
					"MarginalGreedy":     marginal(submod.MarginalGreedy),
					"LazyMarginalGreedy": marginal(submod.LazyMarginalGreedy),
				} {
					if fmt.Sprint(got.set) != fmt.Sprint(eagerMG.set) {
						t.Errorf("%s set %v != eager %v", name, got.set, eagerMG.set)
					}
					if got.cost != eagerMG.cost {
						t.Errorf("%s cost %s != eager %s", name, got.cost, eagerMG.cost)
					}
					if got.res.Stale > 0 {
						lazyEngaged = true
					}
					if got.res.Reused > 0 {
						reuseEngaged = true
					}
				}

				eagerG := plain(submod.EagerGreedy)
				lazyG := plain(submod.Greedy)
				if fmt.Sprint(lazyG.set) != fmt.Sprint(eagerG.set) {
					t.Errorf("Greedy set %v != eager %v", lazyG.set, eagerG.set)
				}
				if lazyG.cost != eagerG.cost {
					t.Errorf("Greedy cost %s != eager %s", lazyG.cost, eagerG.cost)
				}
				if lazyG.res.Stale > 0 {
					lazyEngaged = true
				}
			})
		}
	}
	if !lazyEngaged {
		t.Error("no grid point performed a stale re-evaluation — the lazy path never engaged")
	}
	if !reuseEngaged {
		t.Error("no grid point reused an exact marginal — the dirty-candidate path never engaged")
	}
}

// TestLazyStrategyGridViaRun pins the same property at the core.RunWith level
// (the strategy dispatch the session uses) on the TPCD batch fixtures:
// lazy strategies agree with their golden-verified counterparts.
func TestLazyStrategyGridViaRun(t *testing.T) {
	cat := tpcd.Catalog(1)
	for bq := 1; bq <= 6; bq++ {
		batch := tpcd.BQ(bq)
		run := func(s core.Strategy) core.Result {
			opt, err := volcano.NewOptimizer(cat, cost.Default(), batch)
			if err != nil {
				t.Fatal(err)
			}
			return core.RunWith(context.Background(), opt, s, core.Config{})
		}
		mg, lmg := run(core.MarginalGreedy), run(core.LazyMarginalGreedy)
		if fmt.Sprint(mg.Materialized) != fmt.Sprint(lmg.Materialized) {
			t.Errorf("BQ%d: MarginalGreedy %v != LazyMarginalGreedy %v", bq, mg.Materialized, lmg.Materialized)
		}
		g, lg := run(core.Greedy), run(core.LazyGreedyStrategy)
		if fmt.Sprint(g.Materialized) != fmt.Sprint(lg.Materialized) {
			t.Errorf("BQ%d: Greedy %v != LazyGreedy %v", bq, g.Materialized, lg.Materialized)
		}
	}
}
