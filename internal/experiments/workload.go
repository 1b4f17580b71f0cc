package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/submod"
	"repro/internal/tpcd"
	"repro/internal/volcano"
	"repro/internal/workload"
)

// WorkloadStrategies are the seven MQO strategies the synthetic-workload
// mode compares (Exhaustive is excluded: generated universes are far beyond
// the 25 shareable nodes it enumerates at most).
var WorkloadStrategies = []core.Strategy{
	core.Volcano, core.VolcanoSH, core.MaterializeAll,
	core.Greedy, core.LazyGreedyStrategy,
	core.MarginalGreedy, core.LazyMarginalGreedy,
}

// Workload runs all seven strategies over one generated batch and reports,
// per strategy, the DAG-build time, the optimization time, the plan cost
// against the no-MQO (stand-alone Volcano) baseline, and the run
// telemetry. ctx and cfg plumb the session-style budgets through: a
// time or oracle-call budget degrades each strategy to its best-so-far
// set, visible in the "stopped" column.
func Workload(ctx context.Context, spec workload.Spec, sf float64, cfg core.Config) (*Table, error) {
	batch, err := workload.Generate(spec)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("Synthetic workload: %d %s queries, fan-out %d, sharing %.2f, SF %g (seed %d)",
			spec.Queries, spec.Shape, spec.FanOut, spec.Sharing, sf, spec.Seed),
		Columns: []string{"Strategy", "DAG build (ms)", "Opt time (ms)", "Cost (s)", "#mat", "Rounds", "Stopped", "Gain vs no-MQO"},
	}
	cat := tpcd.Catalog(sf)
	var groups, shareable int
	for _, s := range WorkloadStrategies {
		start := time.Now()
		// A fresh optimizer per strategy so DAG-build and optimization
		// times are measured cold, not flattered by warm caches.
		opt, err := volcano.NewOptimizer(cat, cost.Default(), batch)
		if err != nil {
			return nil, err
		}
		build := time.Since(start)
		r := core.RunWith(ctx, opt, s, cfg)
		groups, shareable = opt.Memo.NumGroups(), len(opt.Shareable())
		stopped := "-"
		if r.Telemetry.Stopped != submod.StopNone {
			stopped = r.Telemetry.Stopped.String()
		}
		t.Rows = append(t.Rows, []string{
			s.String(),
			fmt.Sprintf("%.1f", ms(build)),
			fmt.Sprintf("%.1f", ms(r.OptTime)),
			seconds(r.Cost),
			fmt.Sprintf("%d", len(r.Materialized)),
			fmt.Sprintf("%d", r.Telemetry.Rounds),
			stopped,
			// Every Result carries bc(∅), so the gain column does not
			// depend on Volcano's position in the strategy list.
			gain(r.VolcanoCost, r.Cost),
		})
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"Combined DAG: %d groups, %d shareable nodes. Gain is the cost reduction relative to the "+
			"stand-alone Volcano plans (no multi-query optimization). A budgeted run reports its stop "+
			"reason and keeps the best-so-far set.", groups, shareable))
	return t, nil
}

// WorkloadSweep charts the perf trajectory of MarginalGreedy over a grid of
// batch sizes and sharing coefficients — the scaling series the stress
// benchmarks (BenchmarkWorkload) track release over release. The same
// ctx/cfg budget plumbing as Workload applies to every cell.
func WorkloadSweep(ctx context.Context, base workload.Spec, sf float64, sizes []int, sharings []float64, cfg core.Config) (*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("Workload sweep: MarginalGreedy over generated %s batches (fan-out %d, SF %g)",
			base.Shape, base.FanOut, sf),
		Columns: []string{"Batch", "Groups", "Shareable", "DAG build (ms)", "Opt time (ms)", "bc-calls", "hit %", "#mat", "Stopped", "Gain vs no-MQO"},
	}
	cat := tpcd.Catalog(sf)
	for _, n := range sizes {
		for _, sh := range sharings {
			spec := base
			spec.Queries = n
			spec.Sharing = sh
			batch, err := workload.Generate(spec)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			opt, err := volcano.NewOptimizer(cat, cost.Default(), batch)
			if err != nil {
				return nil, err
			}
			build := time.Since(start)
			r := core.RunWith(ctx, opt, core.MarginalGreedy, cfg)
			stopped := "-"
			if r.Telemetry.Stopped != submod.StopNone {
				stopped = r.Telemetry.Stopped.String()
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%dx%g", n, sh),
				fmt.Sprintf("%d", opt.Memo.NumGroups()),
				fmt.Sprintf("%d", len(opt.Shareable())),
				fmt.Sprintf("%.1f", ms(build)),
				fmt.Sprintf("%.1f", ms(r.OptTime)),
				fmt.Sprintf("%d", r.OracleCalls),
				fmt.Sprintf("%.0f", 100*r.Telemetry.CacheHitRate),
				fmt.Sprintf("%d", len(r.Materialized)),
				stopped,
				gain(r.VolcanoCost, r.Cost),
			})
		}
	}
	t.Notes = append(t.Notes,
		"Rows are {queries}x{sharing coefficient}. Optimization time grows superlinearly with the "+
			"shareable universe (one greedy round scans every candidate), while DAG build stays near-linear "+
			"in the batch size — the optimizer-side scan volume, not DAG build, is the scaling bottleneck. "+
			"Time/oracle budgets (-wl-time-budget, -wl-call-budget) bound each cell and report the stop reason.")
	return t, nil
}
