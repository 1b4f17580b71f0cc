// Command mqo optimizes a batch of SQL-like queries against the TPCD
// catalog through a repro.Session and prints the consolidated plan chosen
// by the selected MQO strategy, plus the run telemetry.
//
// Usage:
//
//	mqo [-sf 1] [-algo marginal|greedy|volcano|all] [-file batch.sql]
//	    [-timeout 0] [-budget -1]
//
// Reads the batch from -file or stdin; statements are separated by
// semicolons. A -timeout or -budget bound degrades the run to its
// best-so-far materialization set (printed with the stop reason). Example:
//
//	echo "SELECT o.orderdate, SUM(l.extendedprice)
//	      FROM orders o, lineitem l
//	      WHERE o.orderkey = l.orderkey AND o.orderdate < 1100
//	      GROUP BY o.orderdate;
//	      SELECT o.orderdate, SUM(l.extendedprice)
//	      FROM orders o, lineitem l
//	      WHERE o.orderkey = l.orderkey AND o.orderdate < 1400
//	      GROUP BY o.orderdate;" | mqo -algo all
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/logical"
	"repro/internal/parser"
	"repro/internal/tpcd"
	"repro/internal/volcano"
)

func main() {
	log.SetFlags(0)
	sf := flag.Float64("sf", 1, "TPCD scale factor (1 ≈ 1GB, 100 ≈ 100GB)")
	algo := flag.String("algo", "marginal", "algorithm: marginal, lazymarginal, greedy, volcano, all")
	file := flag.String("file", "", "file with the SQL batch (default: stdin)")
	showPlan := flag.Bool("plan", true, "print the consolidated plan")
	dot := flag.Bool("dot", false, "emit the combined AND-OR DAG as Graphviz DOT and exit")
	k := flag.Int("k", 0, "cardinality constraint on materializations (0 = unconstrained)")
	ext := flag.Bool("hash", false, "enable the extended operator set (hash join, hash aggregation)")
	timeout := flag.Duration("timeout", 0, "wall-clock budget per optimization (0 = none)")
	budget := flag.Int("budget", -1, "oracle-call budget per optimization (-1 = none, 0 = empty set)")
	flag.Parse()

	var src []byte
	var err error
	if *file != "" {
		src, err = os.ReadFile(*file)
	} else {
		src, err = io.ReadAll(os.Stdin)
	}
	if err != nil {
		log.Fatalf("mqo: reading input: %v", err)
	}
	batch, err := parser.ParseBatch(string(src))
	if err != nil {
		log.Fatalf("mqo: %v", err)
	}
	cat := tpcd.Catalog(*sf)
	ctx := context.Background()

	if *dot {
		opt, err := volcano.NewOptimizer(cat, cost.Default(), batch)
		if err != nil {
			log.Fatalf("mqo: %v", err)
		}
		if err := opt.Memo.WriteDOT(os.Stdout, opt.Shareable()); err != nil {
			log.Fatalf("mqo: %v", err)
		}
		return
	}

	strategies := map[string][]repro.Strategy{
		"volcano":      {core.Volcano},
		"greedy":       {core.Greedy},
		"marginal":     {core.MarginalGreedy},
		"lazymarginal": {core.LazyMarginalGreedy},
		"all":          {core.Volcano, core.Greedy, core.MarginalGreedy},
	}
	strats, ok := strategies[*algo]
	if !ok {
		log.Fatalf("mqo: unknown algorithm %q", *algo)
	}

	sess, err := repro.NewSession(cat, cost.Default(), repro.WithExtendedOps(*ext))
	if err != nil {
		log.Fatalf("mqo: %v", err)
	}
	for _, s := range strats {
		if *k > 0 && s == core.MarginalGreedy {
			// The cardinality constraint applies to MarginalGreedy only
			// (Section 5.3) and stays on the core API: RunK is not a
			// streaming-session strategy.
			if *timeout > 0 || *budget >= 0 {
				log.Printf("mqo: note: -timeout/-budget do not apply to the -k mode")
			}
			runK(cat, batch, *k, *ext, *showPlan)
			continue
		}
		opts := []repro.Option{repro.WithStrategy(s)}
		if *timeout > 0 {
			opts = append(opts, repro.WithTimeBudget(*timeout))
		}
		if *budget >= 0 {
			opts = append(opts, repro.WithOracleCallBudget(*budget))
		}
		res, err := sess.Optimize(ctx, batch, opts...)
		if err != nil {
			log.Fatalf("mqo: %v", err)
		}
		fmt.Printf("== %s ==\n", s)
		fmt.Printf("queries: %d   materialized: %d\n", len(batch.Queries), len(res.Materialized))
		fmt.Printf("estimated cost: %.1f s (stand-alone Volcano: %.1f s, benefit %.1f s)\n",
			res.Cost/1000, res.VolcanoCost/1000, res.Benefit/1000)
		tl := res.Telemetry
		fmt.Printf("optimization: %v total (build %v, setup %v, search %v, extract %v)\n",
			res.OptTime, res.BuildTime, tl.SetupTime, tl.SearchTime, res.ExtractTime)
		fmt.Printf("oracle: %d calls over %d rounds, %d bc evaluations, cache hit rate %.0f%%\n",
			tl.OracleCalls, tl.Rounds, tl.BCCalls, 100*tl.CacheHitRate)
		if tl.Stopped != repro.StopNone {
			fmt.Printf("stopped early: %s (best-so-far set)\n", tl.Stopped)
		}
		if *showPlan {
			if err := res.Validate(); err != nil {
				log.Fatalf("mqo: extracted plan failed validation: %v", err)
			}
			fmt.Println(res.Plan.String())
		}
	}
}

// runK handles the -k mode through core.RunK (Section 5.3) with the
// Theorem 4 universe reduction.
func runK(cat *catalog.Catalog, batch *logical.Batch, k int, ext, showPlan bool) {
	opt, err := volcano.NewOptimizer(cat, cost.Default(), batch)
	if err != nil {
		log.Fatalf("mqo: %v", err)
	}
	opt.ExtendedOps = ext
	res := core.RunK(opt, k, true)
	fmt.Printf("== %s (k=%d) ==\n", res.Strategy, k)
	fmt.Printf("queries: %d   materialized: %d\n", len(batch.Queries), len(res.Materialized))
	fmt.Printf("estimated cost: %.1f s (stand-alone Volcano: %.1f s, benefit %.1f s)\n",
		res.Cost/1000, res.VolcanoCost/1000, res.Benefit/1000)
	fmt.Printf("optimization time: %v   oracle calls: %d\n", res.OptTime, res.OracleCalls)
	if showPlan {
		plan := opt.Plan(res.MatSet())
		if err := opt.ValidatePlan(plan, res.MatSet()); err != nil {
			log.Fatalf("mqo: extracted plan failed validation: %v", err)
		}
		fmt.Println(plan.String())
	}
}
