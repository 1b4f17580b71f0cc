// Package cardinality implements the statistics-based estimation used to
// annotate every node of the AND-OR DAG with an output cardinality, tuple
// width and per-column statistics. The optimizer treats these estimates as
// correct, as the paper assumes ("one assumes that the cost estimates
// provided to us are correct for any guarantees to hold").
package cardinality

import (
	"math"
	"sort"

	"repro/internal/catalog"
	"repro/internal/expr"
)

// ColStats carries the per-column statistics propagated through operators.
type ColStats struct {
	Distinct float64
	Min, Max float64
}

// Props are the estimated relational properties of one equivalence node:
// output row count, tuple width in bytes and per-column statistics. The
// estimators here leave Width zero: it depends on which columns the whole
// batch references, so the memo sets it once the DAG is complete.
type Props struct {
	Rows  float64
	Width int
	Cols  map[expr.Col]ColStats
}

// Clone returns a deep copy of the properties.
func (p Props) Clone() Props {
	cols := make(map[expr.Col]ColStats, len(p.Cols))
	for k, v := range p.Cols {
		cols[k] = v
	}
	return Props{Rows: p.Rows, Width: p.Width, Cols: cols}
}

// ColumnList returns the columns in deterministic order.
func (p Props) ColumnList() []expr.Col {
	out := make([]expr.Col, 0, len(p.Cols))
	for c := range p.Cols {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// BaseProps returns the properties of a base relation occurrence under the
// given alias.
func BaseProps(t *catalog.Table, alias string) Props {
	cols := make(map[expr.Col]ColStats, len(t.Columns))
	for _, c := range t.Columns {
		cols[expr.Col{Alias: alias, Column: c.Name}] = ColStats{
			Distinct: c.Distinct,
			Min:      c.Min,
			Max:      c.Max,
		}
	}
	return Props{Rows: t.Rows, Cols: cols}
}

// Selectivity estimates the fraction of tuples of a relation with the given
// properties that satisfy the predicate. Conjuncts multiply
// (independence assumption); unknown columns default to a selectivity of
// 1/10 for equality and 1/3 for ranges, the classic System R defaults.
func Selectivity(p Props, pred expr.Pred) float64 {
	sel := 1.0
	for _, c := range pred.Conj {
		sel *= cmpSelectivity(p, c)
	}
	return clamp01(sel)
}

// ColumnSelectivity estimates the fraction of a table's tuples that
// satisfy one comparison on its column col, from the catalog's statistics
// for that column: Selectivity's arithmetic without building the table's
// Props.
func ColumnSelectivity(col catalog.Column, c expr.Cmp) float64 {
	return clamp01(statSelectivity(ColStats{Distinct: col.Distinct, Min: col.Min, Max: col.Max}, true, c))
}

func cmpSelectivity(p Props, c expr.Cmp) float64 {
	st, ok := p.Cols[c.Col]
	return statSelectivity(st, ok, c)
}

// statSelectivity is one comparison's selectivity given its column's
// statistics st, when known (ok).
func statSelectivity(st ColStats, ok bool, c expr.Cmp) float64 {
	switch c.Op {
	case expr.EQ:
		if !ok || st.Distinct <= 0 {
			return 0.1
		}
		return clamp01(1 / st.Distinct)
	case expr.LT, expr.LE:
		if !ok || st.Max <= st.Min {
			return 1.0 / 3.0
		}
		return clamp01((c.Val - st.Min) / (st.Max - st.Min))
	case expr.GT, expr.GE:
		if !ok || st.Max <= st.Min {
			return 1.0 / 3.0
		}
		return clamp01((st.Max - c.Val) / (st.Max - st.Min))
	default:
		return 1.0 / 3.0
	}
}

// ApplySelect returns the properties after filtering by pred: rows scale by
// the selectivity, distinct counts are capped by the new row count, and
// range bounds tighten for range predicates.
func ApplySelect(p Props, pred expr.Pred) Props {
	sel := Selectivity(p, pred)
	out := p.Clone()
	out.Rows = math.Max(1, p.Rows*sel)
	for _, c := range pred.Conj {
		st, ok := out.Cols[c.Col]
		if !ok {
			continue
		}
		switch c.Op {
		case expr.EQ:
			st.Distinct = 1
			st.Min, st.Max = c.Val, c.Val
		case expr.LT, expr.LE:
			if c.Val < st.Max {
				frac := rangeFrac(st, st.Min, c.Val)
				st.Distinct = math.Max(1, st.Distinct*frac)
				st.Max = c.Val
			}
		case expr.GT, expr.GE:
			if c.Val > st.Min {
				frac := rangeFrac(st, c.Val, st.Max)
				st.Distinct = math.Max(1, st.Distinct*frac)
				st.Min = c.Val
			}
		}
		out.Cols[c.Col] = st
	}
	capDistinct(&out)
	return out
}

func rangeFrac(st ColStats, lo, hi float64) float64 {
	if st.Max <= st.Min {
		return 1
	}
	return clamp01((hi - lo) / (st.Max - st.Min))
}

// JoinSubsetProps returns the properties of the equi-join of a set of leaf
// inputs under all the conditions that hold among them. The estimate is
// split-independent — the product of the leaf row counts divided, per
// condition, by the larger distinct count of its two columns (10 when
// neither is known) — so every derivation of the subset agrees on it. Join
// columns take the smaller distinct count and the intersected range
// (containment assumption); conditions apply in order, each seeing the
// statistics the previous ones left.
func JoinSubsetProps(leaves []Props, conds []expr.EqJoin) Props {
	ncols := 0
	for _, p := range leaves {
		ncols += len(p.Cols)
	}
	out := Props{Rows: 1, Cols: make(map[expr.Col]ColStats, ncols)}
	for _, p := range leaves {
		out.Rows *= p.Rows
		for k, v := range p.Cols {
			out.Cols[k] = v
		}
	}
	for _, j := range conds {
		vl, okl := out.Cols[j.Left]
		vr, okr := out.Cols[j.Right]
		d := 10.0
		switch {
		case okl && okr:
			d = math.Max(vl.Distinct, vr.Distinct)
		case okl:
			d = vl.Distinct
		case okr:
			d = vr.Distinct
		}
		out.Rows /= math.Max(1, d)
		if okl && okr {
			st := ColStats{
				Distinct: math.Min(vl.Distinct, vr.Distinct),
				Min:      math.Max(vl.Min, vr.Min),
				Max:      math.Min(vl.Max, vr.Max),
			}
			out.Cols[j.Left], out.Cols[j.Right] = st, st
		}
	}
	out.Rows = math.Max(1, out.Rows)
	capDistinct(&out)
	return out
}

// AggProps returns the properties of an aggregation: output rows are the
// product of group-by distinct counts capped by input rows, and output
// columns are the group-by columns plus one column per aggregate.
func AggProps(p Props, spec expr.AggSpec) Props {
	groups := 1.0
	for _, c := range spec.GroupBy {
		if st, ok := p.Cols[c]; ok {
			groups *= math.Max(1, st.Distinct)
		} else {
			groups *= 10
		}
		if groups > p.Rows {
			groups = p.Rows
			break
		}
	}
	groups = math.Min(math.Max(1, groups), p.Rows)
	cols := make(map[expr.Col]ColStats, len(spec.GroupBy)+len(spec.Aggs))
	for _, c := range spec.GroupBy {
		st := p.Cols[c]
		st.Distinct = math.Min(math.Max(1, st.Distinct), groups)
		cols[c] = st
	}
	for _, a := range spec.Aggs {
		out := AggOutputCol(spec, a)
		cols[out] = ColStats{Distinct: groups, Min: 0, Max: math.MaxFloat64 / 4}
	}
	return Props{Rows: groups, Cols: cols}
}

// AggOutputCol returns the column under which an aggregate's result is
// exposed by the aggregation's output. Group-by columns keep their
// original identity; aggregate outputs use the aggregated column's alias
// (or the first group-by column's alias for count(*)) with a derived name
// such as sum_extendedprice or count_all.
func AggOutputCol(spec expr.AggSpec, a expr.Agg) expr.Col {
	return expr.Col{Alias: aggAlias(spec, a), Column: aggName(a)}
}

func aggAlias(spec expr.AggSpec, a expr.Agg) string {
	if a.Func != expr.Count && a.Col.Alias != "" {
		return a.Col.Alias
	}
	if len(spec.GroupBy) > 0 {
		return spec.GroupBy[0].Alias
	}
	return "_agg"
}

func aggName(a expr.Agg) string {
	if a.Func == expr.Count {
		return "count_all"
	}
	return a.Func.String() + "_" + a.Col.Column
}

// capDistinct caps every column's distinct count by the row count.
func capDistinct(p *Props) {
	for k, v := range p.Cols {
		if v.Distinct > p.Rows {
			v.Distinct = p.Rows
			p.Cols[k] = v
		}
		if v.Distinct < 1 {
			v.Distinct = 1
			p.Cols[k] = v
		}
	}
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
