package core

import (
	"context"
	"testing"

	"repro/internal/cost"
	"repro/internal/physical"
	"repro/internal/tpcd"
	"repro/internal/volcano"
)

// newExample1Optimizer builds the optimizer for the paper's Example 1
// batch: queries (A⋈σB⋈C) and (σB⋈C⋈D), where σ(B)⋈C is the common
// subexpression whose materialization makes the consolidated plan cheaper
// than the two locally optimal plans.
func newExample1Optimizer(t testing.TB) *volcano.Optimizer {
	t.Helper()
	cat, batch := tpcd.ExampleOneInstance()
	opt, err := volcano.NewOptimizer(cat, cost.Default(), batch)
	if err != nil {
		t.Fatalf("NewOptimizer: %v", err)
	}
	return opt
}

func TestExample1DAGSharesBC(t *testing.T) {
	opt := newExample1Optimizer(t)
	sh := opt.Shareable()
	if len(sh) == 0 {
		t.Fatalf("expected shareable nodes (B⋈C at least), got none")
	}
	// The B⋈C group must be among the shareable nodes: find a group with
	// exactly two base leaves below it that is consumed by both queries.
	found := false
	for _, id := range sh {
		g := opt.Memo.Group(id)
		if len(g.Consumers) >= 2 && !g.Leaf {
			found = true
		}
	}
	if !found {
		t.Fatalf("no non-leaf group consumed by both queries; sharing identification failed")
	}
}

func TestExample1MQOBeatsVolcano(t *testing.T) {
	opt := newExample1Optimizer(t)
	volcanoRes := RunWith(context.Background(), opt, Volcano, Config{})
	greedy := RunWith(context.Background(), opt, Greedy, Config{})
	marginal := RunWith(context.Background(), opt, MarginalGreedy, Config{})

	if greedy.Cost > volcanoRes.Cost {
		t.Errorf("Greedy cost %.1f worse than Volcano %.1f", greedy.Cost, volcanoRes.Cost)
	}
	if marginal.Cost > volcanoRes.Cost {
		t.Errorf("MarginalGreedy cost %.1f worse than Volcano %.1f", marginal.Cost, volcanoRes.Cost)
	}
	if greedy.Cost >= volcanoRes.Cost*0.999 {
		t.Errorf("expected Greedy to find sharing benefit: greedy=%.1f volcano=%.1f, materialized %d nodes",
			greedy.Cost, volcanoRes.Cost, len(greedy.Materialized))
	}
	if len(marginal.Materialized) == 0 {
		t.Errorf("MarginalGreedy materialized nothing")
	}
	t.Logf("volcano=%.1f greedy=%.1f (%d nodes) marginal=%.1f (%d nodes)",
		volcanoRes.Cost, greedy.Cost, len(greedy.Materialized), marginal.Cost, len(marginal.Materialized))
}

func TestExample1PlanConsistency(t *testing.T) {
	opt := newExample1Optimizer(t)
	res := RunWith(context.Background(), opt, MarginalGreedy, Config{})
	plan := opt.Plan(res.MatSet())
	if diff := plan.Total - res.Cost; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("extracted plan total %.4f != bestCost %.4f", plan.Total, res.Cost)
	}
	if len(plan.Queries) != 2 {
		t.Fatalf("expected 2 query plans, got %d", len(plan.Queries))
	}
	if len(plan.Steps) != len(res.Materialized) {
		t.Errorf("plan has %d materialization steps, result has %d nodes", len(plan.Steps), len(res.Materialized))
	}
}

func TestExample1EmptySetIsVolcano(t *testing.T) {
	opt := newExample1Optimizer(t)
	bcEmpty := opt.BestCost(physical.NodeSet{})
	if v := RunWith(context.Background(), opt, Volcano, Config{}); v.Cost != bcEmpty {
		t.Errorf("Volcano strategy cost %.4f != bc(∅) %.4f", v.Cost, bcEmpty)
	}
	// buc(∅) == bc(∅): with nothing materialized there is nothing to pay for.
	buc := 0.0
	for _, u := range opt.CostBreakdown(physical.NodeSet{}).RootUse {
		buc += u
	}
	if buc != bcEmpty {
		t.Errorf("buc(∅)=%.4f != bc(∅)=%.4f", buc, bcEmpty)
	}
}
