package logical

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
)

func testCatalog() *catalog.Catalog {
	c := catalog.New()
	mk := func(name string, cols ...string) {
		t := &catalog.Table{Name: name, Rows: 1000}
		for _, cn := range cols {
			t.Columns = append(t.Columns, catalog.Column{Name: cn, Type: catalog.Int, Width: 8, Distinct: 100, Min: 0, Max: 99})
		}
		c.MustAddTable(t)
	}
	mk("r", "id", "x", "fk")
	mk("s", "id", "y")
	return c
}

func TestBuilderAndValidate(t *testing.T) {
	q := NewBlock().
		Scan("r", "a").Scan("s", "b").
		Cmp("a.x", expr.LT, 5).
		Join("a.fk", "b.id").
		GroupBy("b.y").Sum("a.x").
		Query("q")
	if err := q.Validate(testCatalog()); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	b := q.Root
	if len(b.Sources) != 2 || len(b.Joins) != 1 || b.Agg == nil {
		t.Fatalf("builder produced %+v", b)
	}
	if p := b.SelectFor("a"); p.True() {
		t.Error("SelectFor(a) lost the predicate")
	}
	if p := b.SelectFor("b"); !p.True() {
		t.Error("SelectFor(b) should be trivial")
	}
}

func TestValidateErrors(t *testing.T) {
	cat := testCatalog()
	cases := []struct {
		name string
		q    *Query
		want string
	}{
		{"nil root", &Query{Name: "x"}, "nil root"},
		{"no sources", (&BlockBuilder{}).Query("x"), "no sources"},
		{"unknown table", NewBlock().Scan("zzz", "a").Query("x"), "unknown table"},
		{"dup alias", NewBlock().Scan("r", "a").Scan("s", "a").Join("a.id", "a.id").Query("x"), "duplicate alias"},
		{"unknown column", NewBlock().Scan("r", "a").Cmp("a.nope", expr.LT, 1).Query("x"), "unknown column"},
		{"unknown alias", NewBlock().Scan("r", "a").Cmp("z.x", expr.LT, 1).Query("x"), "unknown alias"},
		{"self join cond", NewBlock().Scan("r", "a").Scan("s", "b").Join("a.id", "a.x").Query("x"), "references one alias"},
		{"cross product", NewBlock().Scan("r", "a").Scan("s", "b").Query("x"), "not connected"},
		{"agg unknown col", NewBlock().Scan("r", "a").GroupBy("a.zz").Count().Query("x"), "unknown column"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.q.Validate(cat)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("error = %v, want containing %q", err, c.want)
			}
		})
	}
}

func TestMultiAliasPredicateRejected(t *testing.T) {
	p := expr.Pred{Conj: []expr.Cmp{
		{Col: expr.Col{Alias: "a", Column: "x"}, Op: expr.LT, Val: 1},
		{Col: expr.Col{Alias: "b", Column: "y"}, Op: expr.LT, Val: 1},
	}}
	q := NewBlock().Scan("r", "a").Scan("s", "b").Join("a.fk", "b.id").Where(p).Query("x")
	err := q.Validate(testCatalog())
	if err == nil || !strings.Contains(err.Error(), "spans aliases") {
		t.Errorf("error = %v", err)
	}
}

func TestDerivedSources(t *testing.T) {
	inner := NewBlock().
		Scan("r", "a").
		GroupBy("a.fk").Sum("a.x").
		Build()
	outer := NewBlock().
		Scan("s", "b").
		Derived(inner, "d").
		Join("b.id", "d.fk").
		Query("nested")
	if err := outer.Validate(testCatalog()); err != nil {
		t.Fatalf("Validate nested: %v", err)
	}
	// Referencing a column the derived block does not expose fails.
	bad := NewBlock().
		Scan("s", "b").
		Derived(inner, "d").
		Join("b.id", "d.x"). // x is aggregated away
		Query("bad")
	err := bad.Validate(testCatalog())
	if err == nil || !strings.Contains(err.Error(), "does not expose") {
		t.Errorf("error = %v", err)
	}
	// Aggregate outputs are exposed under their derived names.
	viaAgg := NewBlock().
		Scan("s", "b").
		Derived(inner, "d").
		Join("b.id", "d.sum_x").
		Query("viaAgg")
	if err := viaAgg.Validate(testCatalog()); err != nil {
		t.Errorf("agg output reference rejected: %v", err)
	}
}

func TestBlocksPostOrder(t *testing.T) {
	inner := NewBlock().Scan("r", "a").GroupBy("a.fk").Count().Build()
	outer := NewBlock().Scan("s", "b").Derived(inner, "d").Join("b.id", "d.fk").Query("q")
	blocks := outer.Blocks()
	if len(blocks) != 2 {
		t.Fatalf("got %d blocks", len(blocks))
	}
	if blocks[0] != inner || blocks[1] != outer.Root {
		t.Error("blocks not in post order")
	}
}

func TestJoinGraph(t *testing.T) {
	b := NewBlock().
		Scan("r", "a").Scan("s", "b").
		Join("a.fk", "b.id").
		Build()
	g := b.JoinGraph()
	if !g["a"]["b"] || !g["b"]["a"] {
		t.Errorf("join graph %v", g)
	}
}

func TestParseColPanics(t *testing.T) {
	for _, bad := range []string{"noalias", ".x", "a."} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ParseCol(%q) should panic", bad)
				}
			}()
			ParseCol(bad)
		}()
	}
}

func TestAggOutputName(t *testing.T) {
	if AggOutputName(expr.Agg{Func: expr.Count}) != "count_all" {
		t.Error("count name")
	}
	if AggOutputName(expr.Agg{Func: expr.Max, Col: expr.Col{Alias: "a", Column: "v"}}) != "max_v" {
		t.Error("max name")
	}
}
