package expr

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func col(a, c string) Col { return Col{Alias: a, Column: c} }

func TestColString(t *testing.T) {
	if got := col("o", "orderdate").String(); got != "o.orderdate" {
		t.Errorf("got %q", got)
	}
}

func TestColLess(t *testing.T) {
	cases := []struct {
		a, b Col
		want bool
	}{
		{col("a", "x"), col("b", "x"), true},
		{col("b", "x"), col("a", "x"), false},
		{col("a", "x"), col("a", "y"), true},
		{col("a", "x"), col("a", "x"), false},
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.want {
			t.Errorf("%v.Less(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestCmpOpString(t *testing.T) {
	want := map[CmpOp]string{EQ: "=", LT: "<", LE: "<=", GT: ">", GE: ">="}
	for op, s := range want {
		if op.String() != s {
			t.Errorf("%d: got %q want %q", op, op.String(), s)
		}
	}
}

func TestPredFingerprintCanonical(t *testing.T) {
	p1 := Pred{Conj: []Cmp{
		{Col: col("a", "x"), Op: LT, Val: 5},
		{Col: col("a", "y"), Op: EQ, Val: 2},
	}}
	p2 := Pred{Conj: []Cmp{
		{Col: col("a", "y"), Op: EQ, Val: 2},
		{Col: col("a", "x"), Op: LT, Val: 5},
	}}
	if p1.Fingerprint() != p2.Fingerprint() {
		t.Errorf("fingerprints differ for reordered conjuncts: %q vs %q", p1.Fingerprint(), p2.Fingerprint())
	}
	// Rendering is a read: predicates sit in DAGs concurrent runs share.
	if _ = p2.String(); p2.Conj[0].Col != col("a", "y") {
		t.Errorf("Fingerprint reordered its receiver's conjuncts: %v", p2.Conj)
	}
}

func TestPredTrueAndAnd(t *testing.T) {
	var p Pred
	if !p.True() {
		t.Error("zero predicate should be true")
	}
	q := p.And(Pred{Conj: []Cmp{{Col: col("a", "x"), Op: GT, Val: 1}}})
	if q.True() || len(q.Conj) != 1 {
		t.Errorf("And failed: %+v", q)
	}
	if p.True() != true {
		t.Error("And must not mutate the receiver")
	}
}

func TestPredColumns(t *testing.T) {
	p := Pred{Conj: []Cmp{
		{Col: col("a", "x"), Op: LT, Val: 5},
		{Col: col("a", "x"), Op: GT, Val: 1},
		{Col: col("a", "y"), Op: EQ, Val: 2},
	}}
	cols := p.Columns()
	if len(cols) != 2 {
		t.Fatalf("got %d columns, want 2", len(cols))
	}
	if cols[0] != col("a", "x") || cols[1] != col("a", "y") {
		t.Errorf("columns %v", cols)
	}
}

func TestImpliesRanges(t *testing.T) {
	mk := func(op CmpOp, v float64) Pred {
		return Pred{Conj: []Cmp{{Col: col("a", "x"), Op: op, Val: v}}}
	}
	cases := []struct {
		p, q Pred
		want bool
	}{
		{mk(LT, 5), mk(LT, 10), true},
		{mk(LT, 10), mk(LT, 5), false},
		{mk(LT, 5), mk(LT, 5), true},
		{mk(LT, 5), mk(LE, 5), true},
		{mk(LE, 5), mk(LT, 5), false}, // x<=5 does not imply x<5
		{mk(EQ, 3), mk(LT, 5), true},
		{mk(EQ, 7), mk(LT, 5), false},
		{mk(GT, 5), mk(GT, 2), true},
		{mk(GT, 2), mk(GT, 5), false},
		{mk(GE, 5), mk(GE, 5), true},
		{mk(GE, 5), mk(GT, 5), false}, // x>=5 does not imply x>5
		{mk(GT, 5), mk(GE, 5), true},
		{mk(EQ, 5), mk(GE, 5), true},
		{mk(EQ, 5), mk(EQ, 5), true},
		{mk(EQ, 5), mk(EQ, 6), false},
	}
	for _, c := range cases {
		if got := c.p.Implies(c.q); got != c.want {
			t.Errorf("(%s).Implies(%s) = %v, want %v", c.p, c.q, got, c.want)
		}
	}
}

func TestImpliesConjunction(t *testing.T) {
	strict := Pred{Conj: []Cmp{
		{Col: col("a", "x"), Op: LT, Val: 5},
		{Col: col("a", "y"), Op: EQ, Val: 1},
	}}
	loose := Pred{Conj: []Cmp{{Col: col("a", "x"), Op: LT, Val: 10}}}
	if !strict.Implies(loose) {
		t.Error("conjunction should imply its weakened conjunct")
	}
	if loose.Implies(strict) {
		t.Error("loose must not imply strict")
	}
	// Everything implies the empty (true) predicate.
	if !strict.Implies(Pred{}) {
		t.Error("must imply true")
	}
}

// TestImpliesSemanticsQuick cross-checks Implies against direct evaluation:
// if p.Implies(q), then every value satisfying p satisfies q.
func TestImpliesSemanticsQuick(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	eval := func(p Pred, v float64) bool {
		for _, c := range p.Conj {
			ok := false
			switch c.Op {
			case EQ:
				ok = v == c.Val
			case LT:
				ok = v < c.Val
			case LE:
				ok = v <= c.Val
			case GT:
				ok = v > c.Val
			case GE:
				ok = v >= c.Val
			}
			if !ok {
				return false
			}
		}
		return true
	}
	for i := 0; i < 2000; i++ {
		p := Pred{Conj: []Cmp{{Col: col("a", "x"), Op: CmpOp(r.Intn(5)), Val: float64(r.Intn(10))}}}
		q := Pred{Conj: []Cmp{{Col: col("a", "x"), Op: CmpOp(r.Intn(5)), Val: float64(r.Intn(10))}}}
		if p.Implies(q) {
			for v := -1.0; v <= 11; v += 0.5 {
				if eval(p, v) && !eval(q, v) {
					t.Fatalf("%s implies %s but v=%v satisfies p not q", p, q, v)
				}
			}
		}
	}
}

func TestEqJoinCanonicalSymmetric(t *testing.T) {
	j1 := EqJoin{Left: col("b", "y"), Right: col("a", "x")}
	j2 := EqJoin{Left: col("a", "x"), Right: col("b", "y")}
	if j1.String() != j2.String() {
		t.Errorf("canonical strings differ: %q vs %q", j1.String(), j2.String())
	}
	if quick.Check(func(a1, c1, a2, c2 string) bool {
		x := EqJoin{Left: Col{a1, c1}, Right: Col{a2, c2}}
		y := EqJoin{Left: Col{a2, c2}, Right: Col{a1, c1}}
		return x.String() == y.String()
	}, nil) != nil {
		t.Error("EqJoin canonicalization is not symmetric")
	}
}

func TestJoinFingerprintOrderIndependent(t *testing.T) {
	a := EqJoin{Left: col("a", "x"), Right: col("b", "y")}
	b := EqJoin{Left: col("c", "z"), Right: col("b", "w")}
	if JoinFingerprint([]EqJoin{a, b}) != JoinFingerprint([]EqJoin{b, a}) {
		t.Error("fingerprint depends on condition order")
	}
}

func TestAggSpecFingerprint(t *testing.T) {
	s1 := AggSpec{
		GroupBy: []Col{col("a", "x"), col("b", "y")},
		Aggs:    []Agg{{Func: Sum, Col: col("a", "v")}},
	}
	s2 := AggSpec{
		GroupBy: []Col{col("b", "y"), col("a", "x")},
		Aggs:    []Agg{{Func: Sum, Col: col("a", "v")}},
	}
	if s1.Fingerprint() != s2.Fingerprint() {
		t.Error("fingerprint depends on group-by order")
	}
}

func TestAggSubsumedBy(t *testing.T) {
	fine := AggSpec{
		GroupBy: []Col{col("a", "x"), col("a", "y")},
		Aggs:    []Agg{{Func: Sum, Col: col("a", "v")}, {Func: Count}},
	}
	coarse := AggSpec{
		GroupBy: []Col{col("a", "x")},
		Aggs:    []Agg{{Func: Sum, Col: col("a", "v")}},
	}
	if !coarse.SubsumedBy(fine) {
		t.Error("coarse should be derivable from fine")
	}
	if fine.SubsumedBy(coarse) {
		t.Error("fine must not be derivable from coarse")
	}
	if coarse.SubsumedBy(coarse) {
		t.Error("identical specs are not a subsumption edge")
	}
	missingAgg := AggSpec{
		GroupBy: []Col{col("a", "x")},
		Aggs:    []Agg{{Func: Min, Col: col("a", "w")}},
	}
	if missingAgg.SubsumedBy(fine) {
		t.Error("cannot derive an aggregate the finer spec lacks")
	}
}

func TestAggStrings(t *testing.T) {
	if (Agg{Func: Count}).String() != "count(*)" {
		t.Error("count(*) rendering")
	}
	if (Agg{Func: Sum, Col: col("l", "price")}).String() != "sum(l.price)" {
		t.Error("sum rendering")
	}
	for f, s := range map[AggFunc]string{Sum: "sum", Count: "count", Min: "min", Max: "max"} {
		if f.String() != s {
			t.Errorf("AggFunc %d renders %q", f, f.String())
		}
	}
}
