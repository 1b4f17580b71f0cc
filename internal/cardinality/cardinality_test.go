package cardinality

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
)

func testTable() *catalog.Table {
	t := &catalog.Table{
		Name: "t",
		Rows: 1000,
		Columns: []catalog.Column{
			{Name: "id", Type: catalog.Int, Width: 8, Distinct: 1000, Min: 0, Max: 999},
			{Name: "grp", Type: catalog.Int, Width: 8, Distinct: 10, Min: 0, Max: 9},
			{Name: "val", Type: catalog.Float, Width: 8, Distinct: 100, Min: 0, Max: 100},
		},
	}
	c := catalog.New()
	c.MustAddTable(t)
	tt, _ := c.Table("t")
	return tt
}

func col(a, c string) expr.Col { return expr.Col{Alias: a, Column: c} }

func pred(c expr.Col, op expr.CmpOp, v float64) expr.Pred {
	return expr.Pred{Conj: []expr.Cmp{{Col: c, Op: op, Val: v}}}
}

func TestBaseProps(t *testing.T) {
	p := BaseProps(testTable(), "a")
	if p.Rows != 1000 {
		t.Errorf("rows=%v", p.Rows)
	}
	st, ok := p.Cols[col("a", "grp")]
	if !ok || st.Distinct != 10 {
		t.Errorf("grp stats: %+v %v", st, ok)
	}
}

func TestSelectivityEquality(t *testing.T) {
	p := BaseProps(testTable(), "a")
	if got := Selectivity(p, pred(col("a", "grp"), expr.EQ, 3)); got != 0.1 {
		t.Errorf("eq selectivity = %v, want 1/10", got)
	}
	// Unknown column falls back to the System R default.
	if got := Selectivity(p, pred(col("z", "zzz"), expr.EQ, 3)); got != 0.1 {
		t.Errorf("unknown column eq = %v, want 0.1", got)
	}
}

func TestSelectivityRange(t *testing.T) {
	p := BaseProps(testTable(), "a")
	if got := Selectivity(p, pred(col("a", "val"), expr.LT, 50)); got != 0.5 {
		t.Errorf("val<50 = %v, want 0.5", got)
	}
	if got := Selectivity(p, pred(col("a", "val"), expr.GT, 75)); got != 0.25 {
		t.Errorf("val>75 = %v, want 0.25", got)
	}
	if got := Selectivity(p, pred(col("a", "val"), expr.LT, 500)); got != 1 {
		t.Errorf("val<500 = %v, want clamp to 1", got)
	}
	if got := Selectivity(p, pred(col("a", "val"), expr.LT, -5)); got != 0 {
		t.Errorf("val<-5 = %v, want clamp to 0", got)
	}
}

func TestSelectivityConjunctsMultiply(t *testing.T) {
	p := BaseProps(testTable(), "a")
	conj := pred(col("a", "val"), expr.LT, 50).And(pred(col("a", "grp"), expr.EQ, 1))
	if got := Selectivity(p, conj); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("conjunction = %v, want 0.05", got)
	}
}

func TestApplySelect(t *testing.T) {
	p := BaseProps(testTable(), "a")
	q := ApplySelect(p, pred(col("a", "val"), expr.LT, 50))
	if q.Rows != 500 {
		t.Errorf("rows after val<50 = %v, want 500", q.Rows)
	}
	st := q.Cols[col("a", "val")]
	if st.Max != 50 {
		t.Errorf("max not tightened: %v", st.Max)
	}
	if st.Distinct >= 100 {
		t.Errorf("distinct not reduced: %v", st.Distinct)
	}
	// Original props untouched.
	if p.Rows != 1000 || p.Cols[col("a", "val")].Max != 100 {
		t.Error("ApplySelect mutated its input")
	}
	// Equality pins the column.
	e := ApplySelect(p, pred(col("a", "grp"), expr.EQ, 3))
	est := e.Cols[col("a", "grp")]
	if est.Distinct != 1 || est.Min != 3 || est.Max != 3 {
		t.Errorf("eq stats: %+v", est)
	}
}

func TestApplySelectFloor(t *testing.T) {
	p := BaseProps(testTable(), "a")
	q := ApplySelect(p, pred(col("a", "val"), expr.LT, -100))
	if q.Rows < 1 {
		t.Errorf("rows must be floored at 1, got %v", q.Rows)
	}
}

func TestJoinProps(t *testing.T) {
	l := BaseProps(testTable(), "a")
	r := BaseProps(testTable(), "b")
	j := JoinSubsetProps([]Props{l, r}, []expr.EqJoin{{Left: col("a", "id"), Right: col("b", "id")}})
	// |L||R|/max(V,V) = 1000*1000/1000.
	if j.Rows != 1000 {
		t.Errorf("join rows = %v, want 1000", j.Rows)
	}
	if _, ok := j.Cols[col("b", "grp")]; !ok {
		t.Error("join lost right-side columns")
	}
}

func TestJoinPropsLowDistinct(t *testing.T) {
	l := BaseProps(testTable(), "a")
	r := BaseProps(testTable(), "b")
	j := JoinSubsetProps([]Props{l, r}, []expr.EqJoin{{Left: col("a", "grp"), Right: col("b", "grp")}})
	if j.Rows != 100000 { // 10^6 / 10
		t.Errorf("join rows = %v, want 100000", j.Rows)
	}
	st := j.Cols[col("a", "grp")]
	if st.Distinct != 10 {
		t.Errorf("join col distinct = %v", st.Distinct)
	}
}

func TestJoinRowsNeverBelowOne(t *testing.T) {
	l := ApplySelect(BaseProps(testTable(), "a"), pred(col("a", "id"), expr.EQ, 5))
	r := ApplySelect(BaseProps(testTable(), "b"), pred(col("b", "id"), expr.EQ, 7))
	j := JoinSubsetProps([]Props{l, r}, []expr.EqJoin{{Left: col("a", "id"), Right: col("b", "id")}})
	if j.Rows < 1 {
		t.Errorf("join rows %v < 1", j.Rows)
	}
}

func TestAggProps(t *testing.T) {
	p := BaseProps(testTable(), "a")
	spec := expr.AggSpec{
		GroupBy: []expr.Col{col("a", "grp")},
		Aggs:    []expr.Agg{{Func: expr.Sum, Col: col("a", "val")}},
	}
	ap := AggProps(p, spec)
	if ap.Rows != 10 {
		t.Errorf("agg rows = %v, want 10 groups", ap.Rows)
	}
	out := AggOutputCol(spec, spec.Aggs[0])
	if _, ok := ap.Cols[out]; !ok {
		t.Errorf("agg output column %v missing from props", out)
	}
}

func TestAggPropsCappedByRows(t *testing.T) {
	p := BaseProps(testTable(), "a")
	spec := expr.AggSpec{
		GroupBy: []expr.Col{col("a", "id"), col("a", "grp")},
		Aggs:    []expr.Agg{{Func: expr.Count}},
	}
	ap := AggProps(p, spec)
	if ap.Rows > p.Rows {
		t.Errorf("groups %v exceed input rows %v", ap.Rows, p.Rows)
	}
}

func TestAggOutputColNaming(t *testing.T) {
	spec := expr.AggSpec{GroupBy: []expr.Col{col("a", "grp")}}
	sum := AggOutputCol(spec, expr.Agg{Func: expr.Sum, Col: col("a", "val")})
	if sum.Column != "sum_val" || sum.Alias != "a" {
		t.Errorf("sum output %v", sum)
	}
	cnt := AggOutputCol(spec, expr.Agg{Func: expr.Count})
	if cnt.Column != "count_all" {
		t.Errorf("count output %v", cnt)
	}
}

// Property: selectivities are always in [0,1], and ApplySelect never
// increases rows or column distinct counts.
func TestEstimatorInvariantsRandom(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	tbl := testTable()
	for i := 0; i < 2000; i++ {
		p := BaseProps(tbl, "a")
		cn := tbl.Columns[r.Intn(len(tbl.Columns))].Name
		pr := pred(col("a", cn), expr.CmpOp(r.Intn(5)), float64(r.Intn(1200)-100))
		sel := Selectivity(p, pr)
		if sel < 0 || sel > 1 {
			t.Fatalf("selectivity %v outside [0,1] for %s", sel, pr)
		}
		q := ApplySelect(p, pr)
		if q.Rows > p.Rows {
			t.Fatalf("rows grew after select: %v > %v", q.Rows, p.Rows)
		}
		for c, st := range q.Cols {
			if st.Distinct > p.Cols[c].Distinct+1e-9 {
				t.Fatalf("distinct grew for %v: %v > %v", c, st.Distinct, p.Cols[c].Distinct)
			}
			if st.Distinct > q.Rows+1e-9 {
				t.Fatalf("distinct %v exceeds rows %v", st.Distinct, q.Rows)
			}
		}
	}
}

func TestPropsCloneIsDeep(t *testing.T) {
	p := BaseProps(testTable(), "a")
	q := p.Clone()
	q.Cols[col("a", "grp")] = ColStats{Distinct: 1}
	if p.Cols[col("a", "grp")].Distinct == 1 {
		t.Error("Clone shares the column map")
	}
}

func TestColumnListSorted(t *testing.T) {
	p := BaseProps(testTable(), "a")
	cols := p.ColumnList()
	for i := 1; i < len(cols); i++ {
		if !cols[i-1].Less(cols[i]) {
			t.Fatalf("ColumnList not sorted at %d: %v", i, cols)
		}
	}
}

// TestColumnSelectivityMatchesProps: a comparison's selectivity read from
// its catalog column is the one Selectivity derives from the table's
// Props, for every column and operator.
func TestColumnSelectivityMatchesProps(t *testing.T) {
	tab := testTable()
	p := BaseProps(tab, "a")
	for _, c := range tab.Columns {
		for _, op := range []expr.CmpOp{expr.EQ, expr.LT, expr.LE, expr.GT, expr.GE} {
			cmp := expr.Cmp{Col: col("a", c.Name), Op: op, Val: 5}
			got := ColumnSelectivity(c, cmp)
			if want := Selectivity(p, expr.Pred{Conj: []expr.Cmp{cmp}}); got != want {
				t.Errorf("%s %v 5: column selectivity %v, props selectivity %v", c.Name, op, got, want)
			}
		}
	}
}
