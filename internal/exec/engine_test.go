package exec

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/tpcd"
	"repro/internal/volcano"
)

// runExample1 executes the Example 1 batch under the given strategy with a
// capped synthetic data size and returns the results plus I/O accounting.
func runExample1(t *testing.T, strat core.Strategy) ([]QueryResult, Accounting) {
	t.Helper()
	cat, batch := tpcd.ExampleOneInstance()
	opt, err := volcano.NewOptimizer(cat, cost.Default(), batch)
	if err != nil {
		t.Fatalf("NewOptimizer: %v", err)
	}
	res := core.RunWith(context.Background(), opt, strat, core.Config{})
	plan := opt.Plan(res.MatSet())
	gen := &Generator{Cat: cat, Seed: 7, Cap: 2000}
	eng := NewEngine(gen, opt.Memo)
	out, err := eng.RunConsolidated(plan)
	if err != nil {
		t.Fatalf("RunConsolidated(%v): %v", strat, err)
	}
	return out, eng.IO
}

func TestConsolidatedPlansAgreeAcrossStrategies(t *testing.T) {
	// The same queries must return identical results regardless of which
	// nodes are materialized: materialization is a pure execution strategy.
	volcanoOut, _ := runExample1(t, core.Volcano)
	greedyOut, _ := runExample1(t, core.Greedy)
	marginalOut, _ := runExample1(t, core.MarginalGreedy)

	if len(volcanoOut) != 2 || len(greedyOut) != 2 || len(marginalOut) != 2 {
		t.Fatalf("expected 2 query results each, got %d/%d/%d",
			len(volcanoOut), len(greedyOut), len(marginalOut))
	}
	for i := range volcanoOut {
		a, b, c := volcanoOut[i], greedyOut[i], marginalOut[i]
		if len(a.Rows) != len(b.Rows) || len(a.Rows) != len(c.Rows) {
			t.Errorf("query %d row counts differ: volcano=%d greedy=%d marginal=%d",
				i, len(a.Rows), len(b.Rows), len(c.Rows))
		}
		if sumAll(a.Rows) != sumAll(b.Rows) || sumAll(a.Rows) != sumAll(c.Rows) {
			t.Errorf("query %d checksum differs across strategies", i)
		}
	}
}

func TestSharedPlanDoesLessIO(t *testing.T) {
	_, ioVolcano := runExample1(t, core.Volcano)
	_, ioGreedy := runExample1(t, core.Greedy)
	if ioGreedy.Total() >= ioVolcano.Total() {
		t.Errorf("greedy consolidated plan should do less simulated I/O: greedy=%.0f volcano=%.0f",
			ioGreedy.Total(), ioVolcano.Total())
	}
	t.Logf("simulated I/O: volcano=%.0f greedy=%.0f", ioVolcano.Total(), ioGreedy.Total())
}

func TestGeneratorDeterminism(t *testing.T) {
	cat := tpcd.Catalog(1)
	g1 := &Generator{Cat: cat, Seed: 11, Cap: 500}
	g2 := &Generator{Cat: cat, Seed: 11, Cap: 500}
	s1, r1, err := g1.Table("orders", []string{"orderkey", "custkey", "orderdate"})
	if err != nil {
		t.Fatal(err)
	}
	s2, r2, err := g2.Table("orders", []string{"orderkey", "custkey", "orderdate"})
	if err != nil {
		t.Fatal(err)
	}
	if len(r1) != len(r2) || len(r1) != 500 {
		t.Fatalf("row counts: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		for j := range r1[i] {
			if r1[i][j] != r2[i][j] {
				t.Fatalf("row %d col %d differs: %v vs %v", i, j, r1[i][j], r2[i][j])
			}
		}
	}
	if s1.Pos("orderkey") != 0 || s2.Pos("orderdate") != 2 {
		t.Errorf("schema positions wrong: %v %v", s1.Names, s2.Names)
	}
}

func TestGeneratorKeyColumnsSequential(t *testing.T) {
	cat := tpcd.Catalog(1)
	g := &Generator{Cat: cat, Seed: 3, Cap: 100}
	_, rows, err := g.Table("customer", []string{"custkey"})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if r[0] != float64(i) {
			t.Fatalf("custkey row %d = %v, want %d (keys must be sequential for FK joins)", i, r[0], i)
		}
	}
}

func TestGeneratorStatsRespected(t *testing.T) {
	cat := tpcd.Catalog(1)
	g := &Generator{Cat: cat, Seed: 3, Cap: 5000}
	_, rows, err := g.Table("lineitem", []string{"quantity", "returnflag"})
	if err != nil {
		t.Fatal(err)
	}
	distinctQ := map[float64]bool{}
	for _, r := range rows {
		if r[0] < 1 || r[0] > 50 {
			t.Fatalf("quantity %v outside [1,50]", r[0])
		}
		if r[1] < 0 || r[1] > 2 {
			t.Fatalf("returnflag %v outside [0,2]", r[1])
		}
		distinctQ[r[0]] = true
	}
	if len(distinctQ) > 50 {
		t.Errorf("quantity has %d distinct values, catalog says 50", len(distinctQ))
	}
}

func sumAll(rows []Row) float64 {
	var s float64
	for _, r := range rows {
		for _, v := range r {
			s += v
		}
	}
	return s
}
