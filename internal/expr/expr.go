// Package expr defines the scalar expression vocabulary of the optimizer:
// column references, selection predicates on single relations, equi-join
// conditions, conjunctions, canonical fingerprints used for DAG
// unification, and predicate implication used for subsumption.
package expr

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Col is a qualified column reference: an alias of a relation occurrence in
// a query, plus a column name of the underlying table.
type Col struct {
	Alias  string
	Column string
}

// String implements fmt.Stringer.
func (c Col) String() string { return c.Alias + "." + c.Column }

// Less orders columns lexicographically; used for canonicalization.
func (c Col) Less(o Col) bool {
	if c.Alias != o.Alias {
		return c.Alias < o.Alias
	}
	return c.Column < o.Column
}

// CmpOp is a comparison operator in a selection predicate.
type CmpOp int

// Comparison operators.
const (
	EQ CmpOp = iota
	LT
	LE
	GT
	GE
)

// String implements fmt.Stringer.
func (op CmpOp) String() string {
	switch op {
	case EQ:
		return "="
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	default:
		return fmt.Sprintf("CmpOp(%d)", int(op))
	}
}

// Cmp is a single comparison of a column against a constant, e.g.
// "o.orderdate < 9000". All constants are normalized to float64; string
// constants are hashed to floats by the workload layer.
type Cmp struct {
	Col Col
	Op  CmpOp
	Val float64
}

// String implements fmt.Stringer.
func (p Cmp) String() string { return fmt.Sprintf("%s%s%g", p.Col, p.Op, p.Val) }

// Pred is a conjunction of comparisons over the columns of a single
// relation occurrence (after push-down every selection is local to one
// alias). The zero value is the always-true predicate.
type Pred struct {
	Conj []Cmp
}

// True reports whether the predicate is the trivial always-true predicate.
func (p Pred) True() bool { return len(p.Conj) == 0 }

// And returns the conjunction of p and q.
func (p Pred) And(q Pred) Pred {
	out := Pred{Conj: make([]Cmp, 0, len(p.Conj)+len(q.Conj))}
	out.Conj = append(out.Conj, p.Conj...)
	out.Conj = append(out.Conj, q.Conj...)
	return out.canonical()
}

// canonical returns the predicate with conjuncts sorted deterministically.
// It never writes through the receiver: predicates sit in DAGs that
// concurrent runs share, and rendering one (String, Fingerprint) must stay a
// read. A predicate already in order — every one And produced — is returned
// as it is; any other is copied first.
func (p Pred) canonical() Pred {
	less := func(i, j int) bool {
		a, b := p.Conj[i], p.Conj[j]
		if a.Col != b.Col {
			return a.Col.Less(b.Col)
		}
		if a.Op != b.Op {
			return a.Op < b.Op
		}
		return a.Val < b.Val
	}
	if !sort.SliceIsSorted(p.Conj, less) {
		p.Conj = slices.Clone(p.Conj)
		sort.Slice(p.Conj, less)
	}
	return p
}

// Fingerprint returns a canonical string identifying the predicate up to
// conjunct order. Equal fingerprints mean semantically identical predicate
// syntax trees (not full logical equivalence).
func (p Pred) Fingerprint() string {
	q := p.canonical()
	parts := make([]string, len(q.Conj))
	for i, c := range q.Conj {
		parts[i] = c.String()
	}
	return strings.Join(parts, "&")
}

// String implements fmt.Stringer.
func (p Pred) String() string {
	if p.True() {
		return "true"
	}
	return p.Fingerprint()
}

// Columns returns the distinct columns referenced by the predicate.
func (p Pred) Columns() []Col {
	seen := map[Col]bool{}
	var out []Col
	for _, c := range p.Conj {
		if !seen[c.Col] {
			seen[c.Col] = true
			out = append(out, c.Col)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Implies reports whether p ⇒ q, i.e. every tuple satisfying p satisfies q.
// It is sound but not complete: it checks that every conjunct of q is
// implied by some conjunct of p on the same column. This is sufficient for
// the select-subsumption rule (deriving a stricter selection from a looser
// one).
func (p Pred) Implies(q Pred) bool {
	for _, qc := range q.Conj {
		implied := false
		for _, pc := range p.Conj {
			if pc.Col == qc.Col && cmpImplies(pc, qc) {
				implied = true
				break
			}
		}
		if !implied {
			return false
		}
	}
	return true
}

// cmpImplies reports whether comparison a (on the same column) implies b.
func cmpImplies(a, b Cmp) bool {
	switch b.Op {
	case EQ:
		return a.Op == EQ && a.Val == b.Val
	case LT:
		switch a.Op {
		case EQ:
			return a.Val < b.Val
		case LT:
			return a.Val <= b.Val
		case LE:
			return a.Val < b.Val
		}
	case LE:
		switch a.Op {
		case EQ:
			return a.Val <= b.Val
		case LT:
			return a.Val <= b.Val // x<v ⇒ x<=w when v<=w
		case LE:
			return a.Val <= b.Val
		}
	case GT:
		switch a.Op {
		case EQ:
			return a.Val > b.Val
		case GT:
			return a.Val >= b.Val
		case GE:
			return a.Val > b.Val
		}
	case GE:
		switch a.Op {
		case EQ:
			return a.Val >= b.Val
		case GT:
			return a.Val >= b.Val
		case GE:
			return a.Val >= b.Val
		}
	}
	return false
}

// EqJoin is an equi-join condition between columns of two relation
// occurrences.
type EqJoin struct {
	Left, Right Col
}

// Canonical returns the condition with sides ordered deterministically.
func (j EqJoin) Canonical() EqJoin {
	if j.Right.Less(j.Left) {
		return EqJoin{Left: j.Right, Right: j.Left}
	}
	return j
}

// String implements fmt.Stringer.
func (j EqJoin) String() string {
	c := j.Canonical()
	return c.Left.String() + "=" + c.Right.String()
}

// JoinFingerprint returns a canonical string for a set of join conditions.
func JoinFingerprint(conds []EqJoin) string {
	parts := make([]string, len(conds))
	for i, c := range conds {
		parts[i] = c.String()
	}
	sort.Strings(parts)
	return strings.Join(parts, "&")
}

// AggFunc is an aggregate function kind.
type AggFunc int

// Aggregate function kinds. All are decomposable (reaggregatable), which
// the aggregate-subsumption rule relies on.
const (
	Sum AggFunc = iota
	Count
	Min
	Max
)

// String implements fmt.Stringer.
func (f AggFunc) String() string {
	switch f {
	case Sum:
		return "sum"
	case Count:
		return "count"
	case Min:
		return "min"
	case Max:
		return "max"
	default:
		return fmt.Sprintf("AggFunc(%d)", int(f))
	}
}

// Agg is one aggregate expression, e.g. sum(l.extendedprice).
type Agg struct {
	Func AggFunc
	Col  Col // ignored for Count
}

// String implements fmt.Stringer.
func (a Agg) String() string {
	if a.Func == Count {
		return "count(*)"
	}
	return fmt.Sprintf("%s(%s)", a.Func, a.Col)
}

// AggSpec is a group-by plus a list of aggregates.
type AggSpec struct {
	GroupBy []Col
	Aggs    []Agg
}

// Fingerprint returns a canonical string for the aggregation spec.
func (s AggSpec) Fingerprint() string {
	g := make([]string, len(s.GroupBy))
	for i, c := range s.GroupBy {
		g[i] = c.String()
	}
	sort.Strings(g)
	a := make([]string, len(s.Aggs))
	for i, ag := range s.Aggs {
		a[i] = ag.String()
	}
	sort.Strings(a)
	return "gb[" + strings.Join(g, ",") + "]agg[" + strings.Join(a, ",") + "]"
}

// GroupBySet returns the group-by columns as a set.
func (s AggSpec) GroupBySet() map[Col]bool {
	m := make(map[Col]bool, len(s.GroupBy))
	for _, c := range s.GroupBy {
		m[c] = true
	}
	return m
}

// SubsumedBy reports whether this aggregation can be computed by
// re-aggregating the output of the finer aggregation fine: fine's group-by
// must be a superset of s's, both must aggregate the same columns with
// decomposable functions, and fine must retain s's group-by columns.
func (s AggSpec) SubsumedBy(fine AggSpec) bool {
	fineSet := fine.GroupBySet()
	for _, c := range s.GroupBy {
		if !fineSet[c] {
			return false
		}
	}
	if len(fine.GroupBy) <= len(s.GroupBy) {
		return false // identical or coarser: not a subsumption edge
	}
	// Every aggregate of s must appear in fine so it can be re-aggregated
	// (sum of sums, sum of counts, min of mins, max of maxes).
	fineAggs := map[string]bool{}
	for _, a := range fine.Aggs {
		fineAggs[a.String()] = true
	}
	for _, a := range s.Aggs {
		if !fineAggs[a.String()] {
			return false
		}
	}
	return true
}
