package physical

import (
	"slices"
	"sort"

	"repro/internal/cardinality"
	"repro/internal/expr"
	"repro/internal/memo"
)

// Physical operator names.
const (
	OpNameScan      = "tablescan"
	OpNameIndexScan = "indexscan"
	OpNameFilter    = "filter"
	OpNameBNLJ      = "nlj"
	OpNameMergeJoin = "mergejoin"
	OpNameHashJoin  = "hashjoin"
	OpNameSortAgg   = "sortagg"
	OpNameHashAgg   = "hashagg"
	OpNameReAgg     = "reagg"
	OpNameSort      = "sort"
	OpNameMatScan   = "matscan"
)

// tmpl is one compiled physical implementation choice for a group: its
// precomputed local cost, child requirements as interned order ids and the
// order it delivers. Templates are enumerated in exactly the order the
// candidate rules define, so strict-< minima (and the first-within-epsilon
// pick of plan extraction) resolve identically to direct enumeration.
type tmpl struct {
	op    string
	e     *memo.MExpr
	local float64 // local cost when matGate is satisfied (or always)
	// localSpill is the BNLJ local cost when the inner input must be
	// spilled to a temporary file first; equal to local for other ops.
	localSpill float64
	// matGate selects between local (group materialized under the current
	// set, inner re-readable) and localSpill; -1 when the choice is static.
	matGate memo.GroupID
	out     ordID
	child   [2]childReq
	nchild  uint8
	// passthrough marks the order-preserving filter: it delivers whatever
	// order is required and forwards the requirement to its only child.
	passthrough bool
	// extended marks hash join / hash aggregation, enumerated only when
	// the searcher's ExtendedOps is on.
	extended bool
	swap     bool
	indexCol string
}

// childReq is what a template asks of one child: the group and the order,
// and the cell they have in the space's index (cellIndex). For the
// passthrough filter, whose child order is whatever is required of the filter
// itself, cell is instead the distance from the filter's cell to the child's:
// the two groups share one order list, so it is the same for every order.
type childReq struct {
	g    memo.GroupID
	ord  ordID
	cell int32
}

// maxTemplates bounds how many templates an operator node compiles to: one
// full scan plus at most one indexed selection per conjunct, one filter,
// six joins (two nested-loops, two hash, two merge), two aggregations.
// prepare sizes the space's one template array by it.
func maxTemplates(e *memo.MExpr) int {
	switch e.Kind {
	case memo.OpScan:
		return 1 + len(e.Pred.Conj)
	case memo.OpFilter:
		return 1
	case memo.OpJoin:
		return 6
	default:
		return 2
	}
}

// appendTemplates appends the candidate templates of one group to out, in
// the exact order candidate generation enumerates implementations: per
// operator node — scans (full scan, then one indexed selection per indexed
// conjunct), order-preserving filters, joins (BNLJ both operand orders,
// hash join both orders, merge join both column orders), aggregations
// (sort-based, then hash).
func (s *space) appendTemplates(out []tmpl, g memo.GroupID) []tmpl {
	for _, e := range s.M.Group(g).Exprs {
		switch e.Kind {
		case memo.OpScan:
			out = s.scanTemplates(out, g, e)
		case memo.OpFilter:
			child := e.Children[0]
			out = append(out, tmpl{
				op:          OpNameFilter,
				e:           e,
				local:       s.M.Model.FilterCost(s.blocksArr[child]),
				localSpill:  s.M.Model.FilterCost(s.blocksArr[child]),
				matGate:     -1,
				child:       [2]childReq{{g: child}},
				nchild:      1,
				passthrough: true,
			})
		case memo.OpJoin:
			out = s.joinTemplates(out, g, e)
		case memo.OpAgg, memo.OpReAgg:
			out = s.aggTemplates(out, g, e)
		}
	}
	return out
}

func (s *space) scanTemplates(out []tmpl, g memo.GroupID, e *memo.MExpr) []tmpl {
	m := s.M.Model
	t, _ := s.M.Cat.Table(e.Table)
	tableBlocks := m.Blocks(t.Rows, t.RowWidth())

	// Full sequential scan (+ filter). A clustered table is stored in
	// clustered-key order, so the scan delivers that order.
	var scanOrd Order
	if cix, ok := t.ClusteredIndex(); ok {
		scanOrd = Order{{Alias: memo.CanonAlias(g), Column: cix.Column}}
	}
	cost := m.ScanCost(tableBlocks)
	if !e.Pred.True() {
		cost += m.FilterCost(tableBlocks)
	}
	out = append(out, tmpl{
		op: OpNameScan, e: e, local: cost, localSpill: cost, matGate: -1,
		out: s.intern(scanOrd),
	})

	// Indexed selection per indexed conjunct; delivers index-column order.
	for _, cmp := range e.Pred.Conj {
		ix, ok := t.IndexOn(cmp.Col.Column)
		if !ok {
			continue
		}
		col, _ := t.Column(cmp.Col.Column) // an index names a column of its table
		rows := t.Rows * cardinality.ColumnSelectivity(col, cmp)
		matchBlk := m.Blocks(rows, t.RowWidth())
		cost := m.IndexScanCost(tableBlocks, matchBlk, rows, ix.Clustered)
		if len(e.Pred.Conj) > 1 {
			cost += m.FilterCost(matchBlk) // residual predicate
		}
		out = append(out, tmpl{
			op: OpNameIndexScan, e: e, local: cost, localSpill: cost, matGate: -1,
			out: s.intern(Order{cmp.Col}), indexCol: cmp.Col.Column,
		})
	}
	return out
}

func (s *space) joinTemplates(out []tmpl, g memo.GroupID, e *memo.MExpr) []tmpl {
	m := s.M.Model
	outBlocks := s.blocksArr[g]
	a, b := e.Children[0], e.Children[1]
	aBlocks, bBlocks := s.blocksArr[a], s.blocksArr[b]

	// Block nested-loops join, both operand orders. Delivers no order;
	// when an order is required the enforcer path in compute() covers it.
	// Re-reading the inner costs only I/O when it is an unfiltered base
	// relation, or when it is materialized under the current set — the
	// latter decided per evaluation via matGate.
	for swap := 0; swap < 2; swap++ {
		outer, inner := a, b
		if swap == 1 {
			outer, inner = b, a
		}
		oB, iB := s.blocksArr[outer], s.blocksArr[inner]
		ig := s.M.Group(inner)
		t := tmpl{
			op: OpNameBNLJ, e: e,
			local:   m.BNLJCost(oB, iB, outBlocks, true),
			matGate: -1,
			child:   [2]childReq{{g: outer}, {g: inner}},
			nchild:  2, swap: swap == 1,
		}
		if ig.Leaf && !ig.BasePred {
			t.localSpill = t.local
		} else {
			t.localSpill = m.BNLJCost(oB, iB, outBlocks, false)
			if s.SI.Pos(inner) >= 0 {
				t.matGate = inner
			} else {
				t.local = t.localSpill // never re-readable
			}
		}
		out = append(out, t)
	}

	// Hash join (extended operator set only): builds on the smaller side,
	// delivers no order.
	for swap := 0; swap < 2; swap++ {
		build, probe := a, b
		if swap == 1 {
			build, probe = b, a
		}
		local := m.HashJoinCost(s.blocksArr[build], s.blocksArr[probe], outBlocks)
		out = append(out, tmpl{
			op: OpNameHashJoin, e: e, local: local, localSpill: local, matGate: -1,
			child:  [2]childReq{{g: build}, {g: probe}},
			nchild: 2, swap: swap == 1, extended: true,
		})
	}

	// Merge join: children sorted on the join columns; delivers the outer
	// (left) column order.
	ordA, ordB, ok := s.mergeOrders(a, e.Conds)
	if ok {
		ia, ib := s.intern(ordA), s.intern(ordB)
		mjAB := m.MergeJoinCost(aBlocks, bBlocks, outBlocks)
		mjBA := m.MergeJoinCost(bBlocks, aBlocks, outBlocks)
		out = append(out, tmpl{
			op: OpNameMergeJoin, e: e, local: mjAB, localSpill: mjAB, matGate: -1,
			out:    ia,
			child:  [2]childReq{{g: a, ord: ia}, {g: b, ord: ib}},
			nchild: 2,
		})
		out = append(out, tmpl{
			op: OpNameMergeJoin, e: e, local: mjBA, localSpill: mjBA, matGate: -1,
			out:    ib,
			child:  [2]childReq{{g: b, ord: ib}, {g: a, ord: ia}},
			nchild: 2, swap: true,
		})
	}
	return out
}

// mergeOrders splits the join conditions into the column sequences each
// child must be sorted on, in a deterministic condition order: by the
// rendering of a's column, the first condition on a column kept.
func (s *space) mergeOrders(a memo.GroupID, conds []expr.EqJoin) (Order, Order, bool) {
	ap := s.M.Group(a).Props
	type pair struct{ ca, cb expr.Col }
	var buf [4]pair
	pairs := buf[:0]
	for _, j := range conds {
		if _, inA := ap.Cols[j.Left]; inA {
			pairs = append(pairs, pair{j.Left, j.Right})
		} else {
			pairs = append(pairs, pair{j.Right, j.Left})
		}
	}
	slices.SortFunc(pairs, func(x, y pair) int {
		switch {
		case renderedLess(x.ca, y.ca):
			return -1
		case renderedLess(y.ca, x.ca):
			return 1
		}
		return 0
	})
	ordA, ordB := make(Order, 0, len(pairs)), make(Order, 0, len(pairs))
	for _, p := range pairs {
		if slices.Contains(ordA, p.ca) {
			continue
		}
		ordA = append(ordA, p.ca)
		ordB = append(ordB, p.cb)
	}
	return ordA, ordB, len(ordA) > 0
}

func (s *space) aggTemplates(out []tmpl, g memo.GroupID, e *memo.MExpr) []tmpl {
	m := s.M.Model
	child := e.Children[0]
	childBlocks := s.blocksArr[child]
	spec := e.Spec
	op := OpNameSortAgg
	if e.Kind == memo.OpReAgg {
		op = OpNameReAgg
	}
	if len(spec.GroupBy) == 0 {
		// Scalar aggregation over any input order.
		local := m.AggCost(childBlocks)
		return append(out, tmpl{
			op: op, e: e, local: local, localSpill: local, matGate: -1,
			child: [2]childReq{{g: child}}, nchild: 1,
		})
	}
	gb := append(Order(nil), spec.GroupBy...)
	sort.Slice(gb, func(i, j int) bool { return renderedLess(gb[i], gb[j]) })
	gid := s.intern(gb)
	local := m.AggCost(childBlocks)
	out = append(out, tmpl{
		op: op, e: e, local: local, localSpill: local, matGate: -1,
		out: gid, child: [2]childReq{{g: child, ord: gid}}, nchild: 1,
	})
	// Hash aggregation (extended operator set only): unsorted input,
	// unordered output.
	if e.Kind == memo.OpAgg {
		ha := m.HashAggCost(childBlocks, s.blocksArr[g])
		out = append(out, tmpl{
			op: OpNameHashAgg, e: e, local: ha, localSpill: ha, matGate: -1,
			child: [2]childReq{{g: child}}, nchild: 1, extended: true,
		})
	}
	return out
}

// renderedLess reports whether a.String() < b.String() — the order the
// compiled orders' columns are sorted in — without rendering either
// "alias.column". Up to the shorter alias the renderings are the aliases;
// after an equal alias both read '.' and then the column.
func renderedLess(a, b expr.Col) bool {
	if a.Alias == b.Alias {
		return a.Column < b.Column
	}
	n := min(len(a.Alias), len(b.Alias))
	if a.Alias[:n] != b.Alias[:n] {
		return a.Alias < b.Alias
	}
	// One alias is a proper prefix of the other: the shorter one's '.'
	// meets the longer one's next byte.
	if len(a.Alias) < len(b.Alias) && b.Alias[n] != '.' {
		return '.' < b.Alias[n]
	}
	if len(b.Alias) < len(a.Alias) && a.Alias[n] != '.' {
		return a.Alias[n] < '.'
	}
	return a.String() < b.String()
}
