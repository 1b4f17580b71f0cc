package core

import (
	"context"
	"testing"

	"repro/internal/memo"
	"repro/internal/physical"
)

func TestVolcanoSHBetweenVolcanoAndMQO(t *testing.T) {
	// The lineage's ordering: Volcano ≥ Volcano-SH ≥ full MQO (Greedy /
	// MarginalGreedy), since Volcano-SH only shares what the locally
	// optimal plans already expose.
	opt := bq2Optimizer(t)
	v := RunWith(context.Background(), opt, Volcano, Config{})
	sh := RunWith(context.Background(), opt, VolcanoSH, Config{})
	g := RunWith(context.Background(), opt, Greedy, Config{})
	if sh.Cost > v.Cost+1e-6 {
		t.Errorf("Volcano-SH %.1f worse than Volcano %.1f", sh.Cost, v.Cost)
	}
	if g.Cost > sh.Cost+1e-6 {
		t.Errorf("full MQO Greedy %.1f worse than Volcano-SH %.1f", g.Cost, sh.Cost)
	}
	t.Logf("volcano=%.0f volcano-sh=%.0f (%d nodes) greedy=%.0f (%d nodes)",
		v.Cost, sh.Cost, len(sh.Materialized), g.Cost, len(g.Materialized))
}

func TestVolcanoSHOnlyPicksSharedNodes(t *testing.T) {
	// Everything Volcano-SH materializes must be computed at least twice
	// in the locally optimal plan trees.
	opt := newExample1Optimizer(t)
	sh := RunWith(context.Background(), opt, VolcanoSH, Config{})
	plan := opt.Plan(physical.NodeSet{})
	uses := map[memo.GroupID]int{}
	var walk func(n *physical.PlanNode)
	walk = func(n *physical.PlanNode) {
		uses[n.Group]++
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, q := range plan.Queries {
		walk(q)
	}
	for _, id := range sh.Materialized {
		if uses[id] < 2 {
			t.Errorf("Volcano-SH materialized group %d used %d times in the local plans", id, uses[id])
		}
	}
	if sh.Benefit <= 0 {
		t.Error("Volcano-SH found no benefit on Example 1 (σB⋈C appears in both local plans)")
	}
}

func TestVolcanoSHStrategyString(t *testing.T) {
	if VolcanoSH.String() != "Volcano-SH" {
		t.Errorf("got %q", VolcanoSH.String())
	}
}
