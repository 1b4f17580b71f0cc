package repro

import (
	"context"
	"testing"

	"repro/internal/cost"

	"repro/internal/parser"
	"repro/internal/tpcd"
)

func TestOptimizeFacade(t *testing.T) {
	cat, batch := tpcd.ExampleOneInstance()
	sess, err := NewSession(cat, cost.Default())
	if err != nil {
		t.Fatal(err)
	}
	v, err := sess.Optimize(context.Background(), batch, WithStrategy(Volcano))
	if err != nil {
		t.Fatal(err)
	}
	m, err := sess.Optimize(context.Background(), batch, WithStrategy(MarginalGreedy))
	if err != nil {
		t.Fatal(err)
	}
	vplan, mplan := v.Plan, m.Plan
	if m.Cost > v.Cost {
		t.Errorf("MarginalGreedy %.1f worse than Volcano %.1f", m.Cost, v.Cost)
	}
	if len(vplan.Steps) != 0 {
		t.Errorf("Volcano plan has %d materialization steps", len(vplan.Steps))
	}
	if len(mplan.Queries) != 2 {
		t.Errorf("plan has %d queries", len(mplan.Queries))
	}
	if mplan.Total != m.Cost {
		t.Errorf("plan total %v != result cost %v", mplan.Total, m.Cost)
	}
}

func TestOptimizeRejectsInvalidBatch(t *testing.T) {
	if _, err := newTestSession(t).Optimize(context.Background(), nil, WithStrategy(Greedy)); err == nil {
		t.Error("nil batch accepted")
	}
}

func TestSQLToPlanEndToEnd(t *testing.T) {
	// The full pipeline: SQL text → parser → optimizer → consolidated plan.
	batch, err := parser.ParseBatch(`
		SELECT o.orderdate, SUM(l.extendedprice) FROM orders o, lineitem l
		WHERE o.orderkey = l.orderkey AND o.orderdate < 1100 GROUP BY o.orderdate;
		SELECT o.orderdate, SUM(l.extendedprice) FROM orders o, lineitem l
		WHERE o.orderkey = l.orderkey AND o.orderdate < 1400 GROUP BY o.orderdate;`)
	if err != nil {
		t.Fatal(err)
	}
	sess := newTestSession(t)
	v, err := sess.Optimize(context.Background(), batch, WithStrategy(Volcano))
	if err != nil {
		t.Fatal(err)
	}
	g, err := sess.Optimize(context.Background(), batch, WithStrategy(MarginalGreedy))
	if err != nil {
		t.Fatal(err)
	}
	plan := g.Plan
	if g.Cost >= v.Cost {
		t.Errorf("subsumption pair found no sharing: %v vs %v", g.Cost, v.Cost)
	}
	if len(plan.Steps) == 0 {
		t.Error("expected at least one materialization (the looser selection)")
	}
}
