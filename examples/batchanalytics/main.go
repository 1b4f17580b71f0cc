// Batch analytics: the scenario the paper's introduction motivates — a
// batch of related TPCD report queries submitted together (BQ3: Q3, Q5 and
// Q7, each run twice with different selection constants). The example
// optimizes the batch through one Session with all three strategies,
// prints the Figure-4-style comparison, and then actually executes the
// winning consolidated plan on deterministic synthetic data, verifying
// that every query returns the same answer as the unshared plan while
// doing less simulated I/O.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/tpcd"
)

func main() {
	cat := tpcd.Catalog(1)
	batch := tpcd.BQ(3)
	sess, err := repro.NewSession(cat, cost.Default())
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	fmt.Println("Optimizing BQ3 (Q3, Q5, Q7 — each with two selection constants):")
	results := map[repro.Strategy]*repro.RunResult{}
	for _, s := range []repro.Strategy{repro.Volcano, repro.Greedy, repro.MarginalGreedy} {
		r, err := sess.Optimize(ctx, batch, repro.WithStrategy(s))
		if err != nil {
			log.Fatal(err)
		}
		results[s] = r
		fmt.Printf("  %-15s cost %8.0f s   materialized %2d   opt time %v   oracle calls %d\n",
			s, r.Cost/1000, len(r.Materialized), r.OptTime, r.Telemetry.OracleCalls)
	}

	// Execute the Volcano (unshared) and MarginalGreedy (shared) plans on
	// synthetic data and compare answers and simulated I/O; independent
	// materialization steps run on 4 workers.
	run := func(s repro.Strategy) ([]exec.QueryResult, exec.Accounting) {
		r := results[s]
		eng := exec.NewEngine(&exec.Generator{Cat: cat, Seed: 1, Cap: 3000}, r.Memo())
		out, err := eng.RunConsolidated(r.Plan)
		if err != nil {
			log.Fatal(err)
		}
		return out, eng.IO
	}
	unshared, ioU := run(repro.Volcano)
	shared, ioS := run(repro.MarginalGreedy)

	fmt.Println("\nExecution on synthetic data (rows capped at 3000/table, 4 exec workers):")
	for i := range unshared {
		same := len(unshared[i].Rows) == len(shared[i].Rows)
		fmt.Printf("  %-4s %4d rows   answers match: %v\n",
			unshared[i].Name, len(shared[i].Rows), same)
	}
	fmt.Printf("\nSimulated I/O (blocks, weighted): unshared %.0f vs shared %.0f\n",
		ioU.Total(), ioS.Total())
}
