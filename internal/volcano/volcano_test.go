package volcano

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/physical"
	"repro/internal/tpcd"
)

func TestNewOptimizerRejectsBadBatch(t *testing.T) {
	cat := tpcd.Catalog(1)
	if _, err := NewOptimizer(cat, cost.Default(), nil); err == nil {
		t.Error("nil batch accepted")
	}
}

func TestBCCallsCount(t *testing.T) {
	opt, err := NewOptimizer(tpcd.Catalog(1), cost.Default(), tpcd.BQ(1))
	if err != nil {
		t.Fatal(err)
	}
	before := opt.BCCalls
	opt.BestCost(physical.NodeSet{})
	opt.BestCost(physical.NodeSet{})
	if got := opt.BCCalls - before; got != 2 {
		t.Errorf("BCCalls delta = %d, want 2", got)
	}
}

func TestPlanForEveryWorkload(t *testing.T) {
	cat := tpcd.Catalog(1)
	for _, w := range tpcd.StandAlone() {
		opt, err := NewOptimizer(cat, cost.Default(), w.Batch)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		plan := opt.Plan(physical.NodeSet{})
		if len(plan.Queries) != len(w.Batch.Queries) {
			t.Errorf("%s: %d query plans for %d queries", w.Name, len(plan.Queries), len(w.Batch.Queries))
		}
		if bc := opt.BestCost(physical.NodeSet{}); plan.Total != bc {
			t.Errorf("%s: plan total %v != volcano cost bc(∅) %v", w.Name, plan.Total, bc)
		}
		if plan.String() == "" {
			t.Errorf("%s: empty plan rendering", w.Name)
		}
	}
}
