package parser

import (
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/tpcd"
)

// parseOne parses a batch of exactly one statement.
func parseOne(t *testing.T, src string) (*logical.Query, error) {
	t.Helper()
	b, err := ParseBatch(src)
	if err != nil {
		return nil, err
	}
	if len(b.Queries) != 1 {
		t.Fatalf("%d statements, want one", len(b.Queries))
	}
	return b.Queries[0], nil
}

func TestParseSimpleSPJ(t *testing.T) {
	q, err := parseOne(t, `
		SELECT *
		FROM orders o, lineitem l
		WHERE o.orderkey = l.orderkey AND o.orderdate < 1100`)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Validate(tpcd.Catalog(1)); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	b := q.Root
	if len(b.Sources) != 2 || len(b.Joins) != 1 || len(b.Selects) != 1 || b.Agg != nil {
		t.Fatalf("parsed %+v", b)
	}
	if b.Sources[0].Table != "orders" || b.Sources[0].Alias != "o" {
		t.Errorf("source %+v", b.Sources[0])
	}
	if b.Selects[0].Conj[0].Op != expr.LT || b.Selects[0].Conj[0].Val != 1100 {
		t.Errorf("selection %+v", b.Selects[0])
	}
}

func TestParseAggregation(t *testing.T) {
	q, err := parseOne(t, `
		SELECT o.orderdate, SUM(l.extendedprice), COUNT(*)
		FROM orders o, lineitem l
		WHERE o.orderkey = l.orderkey
		GROUP BY o.orderdate`)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Validate(tpcd.Catalog(1)); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	agg := q.Root.Agg
	if agg == nil {
		t.Fatal("no aggregation parsed")
	}
	if len(agg.GroupBy) != 1 || agg.GroupBy[0].Column != "orderdate" {
		t.Errorf("group by %v", agg.GroupBy)
	}
	if len(agg.Aggs) != 2 || agg.Aggs[0].Func != expr.Sum || agg.Aggs[1].Func != expr.Count {
		t.Errorf("aggs %v", agg.Aggs)
	}
}

func TestParseImplicitGroupBy(t *testing.T) {
	// A plain column next to an aggregate is added to GROUP BY.
	q, err := parseOne(t, `SELECT o.orderdate, SUM(o.totalprice) FROM orders o`)
	if err != nil {
		t.Fatal(err)
	}
	agg := q.Root.Agg
	if agg == nil || len(agg.GroupBy) != 1 || agg.GroupBy[0].Column != "orderdate" {
		t.Fatalf("implicit group by missing: %+v", agg)
	}
}

func TestParseMinMax(t *testing.T) {
	q, err := parseOne(t, `SELECT ps.partkey, MIN(ps.supplycost), MAX(ps.availqty)
		FROM partsupp ps GROUP BY ps.partkey`)
	if err != nil {
		t.Fatal(err)
	}
	aggs := q.Root.Agg.Aggs
	if aggs[0].Func != expr.Min || aggs[1].Func != expr.Max {
		t.Errorf("aggs %v", aggs)
	}
}

func TestParseBatchSplitsOnSemicolons(t *testing.T) {
	b, err := ParseBatch(`
		SELECT * FROM orders o, lineitem l WHERE o.orderkey = l.orderkey;
		-- a comment between statements
		SELECT * FROM orders o, customer c WHERE o.custkey = c.custkey;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Queries) != 2 {
		t.Fatalf("got %d queries", len(b.Queries))
	}
	if b.Queries[0].Name != "q1" || b.Queries[1].Name != "q2" {
		t.Errorf("names %q %q", b.Queries[0].Name, b.Queries[1].Name)
	}
}

func TestParseOperators(t *testing.T) {
	for opTxt, op := range map[string]expr.CmpOp{
		"=": expr.EQ, "<": expr.LT, "<=": expr.LE, ">": expr.GT, ">=": expr.GE,
	} {
		q, err := parseOne(t, "SELECT * FROM orders o WHERE o.orderdate "+opTxt+" 5")
		if err != nil {
			t.Fatalf("%s: %v", opTxt, err)
		}
		if got := q.Root.Selects[0].Conj[0].Op; got != op {
			t.Errorf("%s parsed as %v", opTxt, got)
		}
	}
}

func TestParseDefaultAlias(t *testing.T) {
	q, err := parseOne(t, "SELECT * FROM orders WHERE orders.orderdate < 5")
	if err != nil {
		t.Fatal(err)
	}
	if q.Root.Sources[0].Alias != "orders" {
		t.Errorf("alias %q", q.Root.Sources[0].Alias)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{"", "empty batch"},
		{"FROM x", "expected SELECT"},
		{"SELECT FROM x", `expected "."`}, // FROM is consumed as a column alias
		{"SELECT a.b", "expected FROM"},
		{"SELECT a.b FROM", "expected table name"},
		{"SELECT a.b FROM t WHERE", "expected column"},
		{"SELECT a.b FROM t WHERE a.b < t.c", "join conditions must use ="},
		{"SELECT a.b FROM t WHERE a.b ! 3", "unexpected character"},
		{"SELECT a.b FROM t WHERE a.b =", "expected number or column"},
		{"SELECT sum(a.b FROM t", `expected ")"`},
		{"SELECT a FROM t", `expected "."`},
	}
	for _, c := range cases {
		_, err := ParseBatch(c.src)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseBatch(%q) error = %v, want containing %q", c.src, err, c.want)
		}
	}
}

func TestLexNumbersAndComments(t *testing.T) {
	toks, err := lex("x -- comment\n12.5 <= >= ; -3")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []tokenKind{tokIdent, tokNumber, tokSymbol, tokSymbol, tokSymbol, tokNumber, tokEOF}
	if len(toks) != len(kinds) {
		t.Fatalf("got %d tokens: %+v", len(toks), toks)
	}
	for i, k := range kinds {
		if toks[i].kind != k {
			t.Errorf("token %d kind %v, want %v", i, toks[i].kind, k)
		}
	}
	if toks[1].num != 12.5 || toks[5].num != -3 {
		t.Errorf("numbers parsed as %v and %v", toks[1].num, toks[5].num)
	}
}

func TestParsedBatchOptimizes(t *testing.T) {
	// End to end: a parsed batch flows through validation; the paper's
	// subsumption case (same query, looser constant) parses cleanly.
	b, err := ParseBatch(`
		SELECT o.orderdate, SUM(l.extendedprice) FROM orders o, lineitem l
		WHERE o.orderkey = l.orderkey AND o.orderdate < 1100 GROUP BY o.orderdate;
		SELECT o.orderdate, SUM(l.extendedprice) FROM orders o, lineitem l
		WHERE o.orderkey = l.orderkey AND o.orderdate < 1400 GROUP BY o.orderdate;`)
	if err != nil {
		t.Fatal(err)
	}
	cat := tpcd.Catalog(1)
	for _, q := range b.Queries {
		if err := q.Validate(cat); err != nil {
			t.Errorf("%s: %v", q.Name, err)
		}
	}
}
