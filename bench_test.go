package repro

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/logical"
	"repro/internal/memo"
	"repro/internal/physical"
	"repro/internal/submod"
	"repro/internal/tpcd"
	"repro/internal/volcano"
	"repro/internal/workload"
)

// The benchmarks regenerate the measured quantity of every table/figure in
// the paper's evaluation: estimated plan costs are reported as custom
// metrics (cost_s, materialized) so the Figure 4/5 series can be read off
// `go test -bench`, and wall time per op is the optimization time the
// paper plots in Figures 4c and 5c.

// runBench optimizes one workload with one strategy b.N times.
func runBench(b *testing.B, sf float64, batch *logical.Batch, strat core.Strategy) {
	b.Helper()
	cat := tpcd.Catalog(sf)
	var res core.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt, err := volcano.NewOptimizer(cat, cost.Default(), batch)
		if err != nil {
			b.Fatal(err)
		}
		res = core.RunWith(context.Background(), opt, strat, core.Config{})
	}
	b.StopTimer()
	b.ReportMetric(res.Cost/1000, "cost_s")
	b.ReportMetric(float64(len(res.Materialized)), "materialized")
}

// BenchmarkExample1 regenerates Example 1 / Figure 1.
func BenchmarkExample1(b *testing.B) {
	cat, batch := tpcd.ExampleOneInstance()
	for _, s := range []core.Strategy{core.Volcano, core.Greedy, core.MarginalGreedy} {
		b.Run(s.String(), func(b *testing.B) {
			var res core.Result
			for i := 0; i < b.N; i++ {
				opt, err := volcano.NewOptimizer(cat, cost.Default(), batch)
				if err != nil {
					b.Fatal(err)
				}
				res = core.RunWith(context.Background(), opt, s, core.Config{})
			}
			b.ReportMetric(res.Cost/1000, "cost_s")
		})
	}
}

// BenchmarkExp1 regenerates Figures 4a/4b (cost_s metric) and 4c
// (ns/op = optimization time) for the batched TPCD workloads.
func BenchmarkExp1(b *testing.B) {
	for _, sf := range []float64{1, 100} {
		b.Run(fmt.Sprintf("SF%d", int(sf)), func(b *testing.B) {
			for i := 1; i <= 6; i++ {
				batch := tpcd.BQ(i)
				for _, s := range []core.Strategy{core.Volcano, core.Greedy, core.MarginalGreedy} {
					b.Run(fmt.Sprintf("BQ%d/%s", i, s), func(b *testing.B) {
						runBench(b, sf, batch, s)
					})
				}
			}
		})
	}
}

// BenchmarkExp2 regenerates Figures 5a/5b/5c for the stand-alone queries.
func BenchmarkExp2(b *testing.B) {
	for _, sf := range []float64{1, 100} {
		b.Run(fmt.Sprintf("SF%d", int(sf)), func(b *testing.B) {
			for _, w := range tpcd.StandAlone() {
				for _, s := range []core.Strategy{core.Volcano, core.Greedy, core.MarginalGreedy} {
					b.Run(fmt.Sprintf("%s/%s", w.Name, s), func(b *testing.B) {
						runBench(b, sf, w.Batch, s)
					})
				}
			}
		})
	}
}

// BenchmarkBound regenerates the Theorem 1 bound validation: MarginalGreedy
// on Profitted Max Coverage (the Theorem 2 hardness family).
func BenchmarkBound(b *testing.B) {
	for _, gamma := range []float64{1, 4, 8} {
		b.Run(fmt.Sprintf("gamma%g", gamma), func(b *testing.B) {
			var val float64
			for i := 0; i < b.N; i++ {
				p := submod.PlantedInstance(42, 60, 4, 8, 20, gamma)
				o := submod.NewOracle(p)
				d := submod.NewDecomposition(o, p.ExplicitCosts())
				val = submod.MarginalGreedy(d).Value
			}
			b.ReportMetric(val, "f_value")
		})
	}
}

// BenchmarkLazyVsEager is the Section 5.2 ablation: the lazy drivers must
// produce the same answer as the exhaustive-scan reference with fewer
// oracle evaluations. Eager is the reference EagerMarginalGreedy;
// MarginalGreedy is the batched-lazy production driver and
// LazyMarginalGreedy its sequential (chunk 1) variant.
func BenchmarkLazyVsEager(b *testing.B) {
	batch := tpcd.BQ(5)
	cat := tpcd.Catalog(1)
	for name, alg := range map[string]func(*submod.Decomposition) submod.Result{
		"Eager":      submod.EagerMarginalGreedy,
		"Lazy":       submod.MarginalGreedy,
		"Sequential": submod.LazyMarginalGreedy,
	} {
		b.Run(name, func(b *testing.B) {
			var calls int
			for i := 0; i < b.N; i++ {
				opt, err := volcano.NewOptimizer(cat, cost.Default(), batch)
				if err != nil {
					b.Fatal(err)
				}
				o := submod.NewOracle(core.NewBenefitFuncCtx(context.Background(), opt))
				alg(submod.DecomposeStar(o))
				calls = o.Calls
			}
			b.ReportMetric(float64(calls), "oracle_calls")
		})
	}
}

// BenchmarkIncrementalCache is the Section 5.1 ablation: the cross-call
// bestCost cache (incremental recomputation) against cold recomputation.
func BenchmarkIncrementalCache(b *testing.B) {
	cat := tpcd.Catalog(1)
	batch := tpcd.BQ(4)
	for _, inc := range []bool{true, false} {
		name := "incremental"
		if !inc {
			name = "cold"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt, err := volcano.NewOptimizer(cat, cost.Default(), batch)
				if err != nil {
					b.Fatal(err)
				}
				opt.Incremental = inc
				core.RunWith(context.Background(), opt, core.MarginalGreedy, core.Config{})
			}
		})
	}
}

// BenchmarkDAGBuild measures combined-DAG construction and expansion (the
// part of optimization that is common to every strategy).
func BenchmarkDAGBuild(b *testing.B) {
	cat := tpcd.Catalog(1)
	batch := tpcd.BQ(6)
	for i := 0; i < b.N; i++ {
		if _, err := volcano.NewOptimizer(cat, cost.Default(), batch); err != nil {
			b.Fatal(err)
		}
	}
}

// workloadSizes and workloadSharings define the BenchmarkWorkload grid:
// sub-benchmarks are named {size}x{sharing}. The 256-query points are the
// stress tier and are skipped under -short.
var (
	workloadSizes    = []int{16, 64, 256}
	workloadSharings = []float64{0.25, 0.75}
)

// BenchmarkWorkload stress-tests the full pipeline — DAG build plus
// MarginalGreedy — on generated batches far beyond BQ6, with allocation
// reporting, so BENCH_*.json charts where the next bottleneck appears as
// batches grow. (Measured on the probe run for this grid: DAG build stays
// sub-second at 256 queries while optimization grows superlinearly with the
// shareable universe — the greedy scan volume, not DAG build, dominates.)
func BenchmarkWorkload(b *testing.B) {
	cat := tpcd.Catalog(1)
	// run is the measured op: a fresh optimizer over the batch, one cold run.
	run := func(b *testing.B, batch *logical.Batch) (res core.Result) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			opt, err := volcano.NewOptimizer(cat, cost.Default(), batch)
			if err != nil {
				b.Fatal(err)
			}
			res = core.RunWith(context.Background(), opt, core.MarginalGreedy, core.Config{})
		}
		b.StopTimer()
		return res
	}
	for _, size := range workloadSizes {
		for _, sharing := range workloadSharings {
			b.Run(fmt.Sprintf("%dx%g", size, sharing), func(b *testing.B) {
				if size > 64 && testing.Short() {
					b.Skipf("skipping the %d-query stress tier in -short mode", size)
				}
				res := run(b, workload.MustGenerate(workload.DefaultSpec(size, sharing)))
				b.ReportMetric(res.Cost/1000, "cost_s")
				b.ReportMetric(float64(len(res.Materialized)), "materialized")
				b.ReportMetric(float64(res.OracleCalls), "bc_calls")
				b.ReportMetric(float64(res.Telemetry.Stale), "stale_reevals")
				b.ReportMetric(float64(res.Telemetry.Reused), "reused_marginals")
				b.ReportMetric(float64(res.Telemetry.Pruned), "pruned")
			})
		}
	}
	// The parallel curve (ROADMAP item 2): the same cold 64-query run at
	// GOMAXPROCS 1, 2 and 4, the widest the searcher fans a batch out (the
	// run is cold, so it does fan out). computed_keys is the work — flat in
	// P, the workers sharing one L1, so a key one of them computed is a hit
	// for the rest — and efficiency is p1's ns/op over P × this row's, so 1.0
	// is a linear speed-up; on fewer than P cores it cannot be reached.
	batch := workload.MustGenerate(workload.DefaultSpec(64, 0.25))
	var p1 float64
	for _, par := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("64x0.25/p%d", par), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(par))
			res := run(b, batch)
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			if par == 1 {
				p1 = ns
			}
			b.ReportMetric(float64(res.OracleCalls), "bc_calls")
			b.ReportMetric(float64(res.Telemetry.ComputedKeys), "computed_keys")
			if p1 > 0 {
				b.ReportMetric(p1/(float64(par)*ns), "efficiency")
			}
		})
	}
}

// BenchmarkNewWorker measures what a cold run pays before it has priced
// anything twice: a searcher over a compiled memo takes a fresh worker — its
// cell-sized memo tables, allocated and zeroed — starts the run's L1, and
// makes the first bc(∅), which touches every cell a full walk demands and
// allocates the L1 heads and buckets it stores them in (a 144-B head for a
// cell's first 8 keys, 1,152-B buckets for a chain). bc(∅) materializes
// nothing, so every cost it stores is a compute cost: 0.95 MB at 64
// queries, 2.5 MB when a cell's first key took a full bucket. A second
// worker of the run pays the memo tables only: the L1 is the run's.
// computed_keys is that walk.
func BenchmarkNewWorker(b *testing.B) {
	cat := tpcd.Catalog(1)
	for _, size := range []int{64, 256} {
		b.Run(fmt.Sprintf("%dx0.25", size), func(b *testing.B) {
			if size > 64 && testing.Short() {
				b.Skipf("skipping the %d-query stress tier in -short mode", size)
			}
			m, err := memo.Build(cat, cost.Default(), workload.MustGenerate(workload.DefaultSpec(size, 0.25)))
			if err != nil {
				b.Fatal(err)
			}
			physical.NewSearcher(m) // compile outside the timer
			var s *physical.Searcher
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s = physical.NewSearcher(m)
				s.BestCost(physical.NodeSet{})
			}
			b.StopTimer()
			b.ReportMetric(float64(s.ComputedKey), "computed_keys")
		})
	}
}

// BenchmarkWorkloadSkew sweeps the generator's hot-group concentration
// knob at a fixed batch size: higher skew funnels the greedy scan into
// few combined-DAG groups and drives many distinct materialization masks
// through their L1 cost buckets — the adversarial access pattern for the
// flat open-addressed cache (eviction pressure concentrates instead of
// spreading). bc_calls stays deterministic per skew point, so the gate
// can track the cache under pressure exactly like the uniform grid.
func BenchmarkWorkloadSkew(b *testing.B) {
	cat := tpcd.Catalog(1)
	for _, skew := range []float64{0, 0.5, 0.9} {
		b.Run(fmt.Sprintf("64x%g", skew), func(b *testing.B) {
			spec := workload.DefaultSpec(64, 0.25)
			spec.Skew = skew
			batch := workload.MustGenerate(spec)
			var res core.Result
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opt, err := volcano.NewOptimizer(cat, cost.Default(), batch)
				if err != nil {
					b.Fatal(err)
				}
				res = core.RunWith(context.Background(), opt, core.MarginalGreedy, core.Config{})
			}
			b.StopTimer()
			b.ReportMetric(res.Cost/1000, "cost_s")
			b.ReportMetric(float64(len(res.Materialized)), "materialized")
			b.ReportMetric(float64(res.OracleCalls), "bc_calls")
		})
	}
}

// BenchmarkWorkloadDAGBuild isolates combined-DAG construction and
// expansion for the generated batches — the component the stress grid
// tracks separately from optimization. It reports the memo's size (groups,
// operators, shareable nodes), which the CI gate holds exactly: a change
// that makes the build cheaper must leave the DAG as it was.
func BenchmarkWorkloadDAGBuild(b *testing.B) {
	cat := tpcd.Catalog(1)
	for _, size := range workloadSizes {
		for _, sharing := range workloadSharings {
			b.Run(fmt.Sprintf("%dx%g", size, sharing), func(b *testing.B) {
				if size > 64 && testing.Short() {
					b.Skipf("skipping the %d-query stress tier in -short mode", size)
				}
				batch := workload.MustGenerate(workload.DefaultSpec(size, sharing))
				b.ReportAllocs()
				b.ResetTimer()
				var opt *volcano.Optimizer
				for i := 0; i < b.N; i++ {
					var err error
					if opt, err = volcano.NewOptimizer(cat, cost.Default(), batch); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(opt.Memo.NumGroups()), "groups")
				b.ReportMetric(float64(opt.Memo.NumExprs()), "exprs")
				b.ReportMetric(float64(len(opt.Shareable())), "shareable")
			})
		}
	}
}

// BenchmarkSearcherSetup isolates what physical.NewSearcher costs over a
// prebuilt memo. "cold" is the first searcher over a memo, which compiles
// the search space (order registry, candidate templates, cost arrays,
// structural fingerprint) and leaves it on the memo: a fresh memo per
// iteration, built outside the timer. "reused" is every later searcher over
// that memo — what a repeated batch on a session pays — a struct literal.
// Neither allocates a worker; the first evaluation takes one. Not in the CI
// gate set.
func BenchmarkSearcherSetup(b *testing.B) {
	cat := tpcd.Catalog(1)
	for _, size := range []int{32, 64} {
		batch := workload.MustGenerate(workload.DefaultSpec(size, 0.25))
		build := func(b *testing.B) *memo.Memo {
			m, err := memo.Build(cat, cost.Default(), batch)
			if err != nil {
				b.Fatal(err)
			}
			return m
		}
		b.Run(fmt.Sprintf("%dx0.25/cold", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := build(b)
				b.StartTimer()
				benchSearcher = physical.NewSearcher(m)
			}
		})
		b.Run(fmt.Sprintf("%dx0.25/reused", size), func(b *testing.B) {
			m := build(b)
			physical.NewSearcher(m)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSearcher = physical.NewSearcher(m)
			}
		})
	}
}

// BenchmarkSessionRepeat measures the case a Session exists for: a warm
// Session.Optimize of one batch it has optimized before. The DAG and
// compiled search space come back from the session, the cost cache answers
// every key and the workers' tables are the previous call's, so what is
// left is the search itself (bc_calls repeats exactly: the oracle work of a
// repeat is the cold run's), plan extraction and the publish. In the CI
// trajectory (bench-regression) from PR 18 on.
func BenchmarkSessionRepeat(b *testing.B) {
	for _, c := range []struct {
		size    int
		sharing float64
	}{{16, 0.5}, {32, 0.25}, {64, 0.25}} {
		b.Run(fmt.Sprintf("%dx%g", c.size, c.sharing), func(b *testing.B) {
			batch := workload.MustGenerate(workload.DefaultSpec(c.size, c.sharing))
			sess, err := NewSession(tpcd.Catalog(1), cost.Default())
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			var res *RunResult
			for i := 0; i < 2; i++ { // build, fill the cost cache, size the workers
				if res, err = sess.Optimize(ctx, batch); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res, err = sess.Optimize(ctx, batch); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(res.OracleCalls), "bc_calls")
			if st := sess.Stats(); st.CompiledMisses != 1 {
				b.Fatalf("the repeated batch was built %d times", st.CompiledMisses)
			}
		})
	}
}

var benchSearcher *physical.Searcher

// BenchmarkPublishCache isolates Searcher.PublishCache, the stage of
// Session.Optimize after plan extraction: "cold" publishes one cold
// MarginalGreedy run's L1 into an empty SharedCache, which adopts it whole
// (a few allocations however many workers filled it); "warm" publishes an
// identical second run made against the cache the first one filled (what a
// repeated batch on a long-lived session pays): that run computes nothing,
// so the publish takes nothing over and allocates 24 B. The run itself is
// outside the timer. Recorded in the CI snapshot, not gated.
func BenchmarkPublishCache(b *testing.B) {
	cat := tpcd.Catalog(1)
	for _, size := range []int{32, 64} {
		batch := workload.MustGenerate(workload.DefaultSpec(size, 0.25))
		run := func(b *testing.B, cache *physical.SharedCache) *physical.Searcher {
			opt, err := volcano.NewOptimizer(cat, cost.Default(), batch)
			if err != nil {
				b.Fatal(err)
			}
			opt.AttachSharedCache(cache)
			core.RunWith(context.Background(), opt, core.MarginalGreedy, core.Config{})
			return opt.Searcher
		}
		b.Run(fmt.Sprintf("%dx0.25/cold", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := run(b, physical.NewSharedCache())
				b.StartTimer()
				s.PublishCache()
			}
		})
		b.Run(fmt.Sprintf("%dx0.25/warm", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cache := physical.NewSharedCache()
				run(b, cache).PublishCache()
				s := run(b, cache)
				b.StartTimer()
				s.PublishCache()
			}
		})
	}
}

// BenchmarkBestCostOracle measures one bc(S) evaluation on a warm searcher,
// the unit of work all MQO algorithms are built from.
func BenchmarkBestCostOracle(b *testing.B) {
	cat := tpcd.Catalog(1)
	opt, err := volcano.NewOptimizer(cat, cost.Default(), tpcd.BQ(4))
	if err != nil {
		b.Fatal(err)
	}
	sh := opt.Shareable()
	sets := make([]physical.NodeSet, len(sh))
	for i, id := range sh {
		sets[i] = opt.NewNodeSet(id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.BestCost(sets[i%len(sets)])
	}
}

// BenchmarkBestCost measures single bc(S) evaluations with allocation
// reporting: on a warm searcher the interned-order/bitset hot path must do
// near-zero allocation per call.
func BenchmarkBestCost(b *testing.B) {
	cat := tpcd.Catalog(1)
	opt, err := volcano.NewOptimizer(cat, cost.Default(), tpcd.BQ(4))
	if err != nil {
		b.Fatal(err)
	}
	sh := opt.Shareable()
	sets := make([]physical.NodeSet, len(sh))
	for i, id := range sh {
		sets[i] = opt.NewNodeSet(id)
	}
	// Warm the cross-call cache and scratch tables with every set once: a
	// use-cost bucket is made the first time its group is materialized.
	for _, set := range sets {
		opt.BestCost(set)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.BestCost(sets[i%len(sets)])
	}
}

// BenchmarkOracleParallel measures one batched oracle round — bc(S) for
// every single-node candidate set, evaluated concurrently on the worker
// pool — the unit of work of one parallel greedy ratio scan.
func BenchmarkOracleParallel(b *testing.B) {
	cat := tpcd.Catalog(1)
	opt, err := volcano.NewOptimizer(cat, cost.Default(), tpcd.BQ(4))
	if err != nil {
		b.Fatal(err)
	}
	sh := opt.Shareable()
	sets := make([]physical.NodeSet, len(sh))
	for i, id := range sh {
		sets[i] = opt.NewNodeSet(id)
	}
	opt.BestCostBatchCtx(context.Background(), sets) // warm every worker's cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.BestCostBatchCtx(context.Background(), sets)
	}
}

// BenchmarkBestPlan measures consolidated-plan extraction with allocation
// reporting. Extraction now prices candidates directly over the compiled
// templates (the same bitset fast path the cost search uses), so the only
// allocations left are the PlanNodes of the returned tree — the
// ExtractCalls telemetry in Result counts the resolutions honestly.
func BenchmarkBestPlan(b *testing.B) {
	cat := tpcd.Catalog(1)
	opt, err := volcano.NewOptimizer(cat, cost.Default(), tpcd.BQ(4))
	if err != nil {
		b.Fatal(err)
	}
	res := core.RunWith(context.Background(), opt, core.MarginalGreedy, core.Config{})
	mat := res.MatSet()
	opt.Plan(mat) // warm the scratch tables and cross-call cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Plan(mat)
	}
}
