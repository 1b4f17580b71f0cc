package memo

import (
	"slices"

	"repro/internal/catalog"
	"repro/internal/expr"
)

// subsumeSelections implements the select-subsumption rule: for two leaf
// selections over the same base table where the stricter predicate implies
// the looser one, the stricter result can alternatively be computed by
// filtering the looser result. This creates the sharing opportunities the
// paper's batched experiments rely on (the same query repeated with
// different selection constants).
//
// Only leaves of one table can subsume each other, so each leaf is tested
// against its table's bucket alone. The pairs are still visited stricter
// leaf by stricter leaf, each against the looser ones in creation order, so
// every group's operators come in the order a test of all pairs adds them.
// A filter reads its predicate's columns under the looser leaf's alias.
// Those of the looser leaf's own selection were noted used when the leaf
// was made, and a looser leaf feeds many stricter ones over the same few
// columns, so only a column outside its selection is noted, once a leaf
// (noted).
func (m *Memo) subsumeSelections() {
	byTable := map[*catalog.Table][]int{}
	for i := range m.scans {
		byTable[m.scans[i].table] = append(byTable[m.scans[i].table], i)
	}
	noted := map[int][]string{} // by looser leaf: the columns noted here under its alias
	for i := range m.scans {
		a := &m.scans[i] // candidate stricter leaf
		if a.anon.True() {
			continue
		}
		for _, j := range byTable[a.table] {
			b := &m.scans[j] // candidate looser leaf
			if j == i {
				continue
			}
			// Strictly stricter: mutual implication (which includes distinct
			// occurrences of the same selection) is not a subsumption edge.
			if !a.anon.Implies(b.anon) || b.anon.Implies(a.anon) {
				continue
			}
			// a = filter(b, pa) — re-apply the stricter predicate to
			// b's output, whose columns carry b's canonical alias.
			filterPred := rewriteAlias(a.anon, "$", b.alias)
			for _, c := range filterPred.Conj {
				col := c.Col.Column
				if slices.ContainsFunc(b.anon.Conj, func(bc expr.Cmp) bool { return bc.Col.Column == col }) || slices.Contains(noted[j], col) {
					continue
				}
				noted[j] = append(noted[j], col)
				m.noteUsed(c.Col)
			}
			m.addExpr(&MExpr{Kind: OpFilter, Group: a.g.ID, Pred: filterPred}, b.g.ID)
			b.g.Consumers.union(a.g.Consumers)
		}
	}
}

// subsumeAggregates implements the aggregate-subsumption rule: an
// aggregation can alternatively be computed by re-aggregating a finer
// aggregation over the same input (its group-by being a strict superset),
// because all supported aggregate functions (sum/count/min/max) are
// decomposable.
func (m *Memo) subsumeAggregates() {
	type aggNode struct {
		g     *Group
		child GroupID
		spec  expr.AggSpec
	}
	byChild := map[GroupID][]aggNode{}
	for _, g := range m.groups {
		for _, e := range g.Exprs {
			if e.Kind == OpAgg {
				byChild[e.Children[0]] = append(byChild[e.Children[0]], aggNode{g: g, child: e.Children[0], spec: *e.Spec})
			}
		}
	}
	for _, nodes := range byChild {
		for _, coarse := range nodes {
			for _, fine := range nodes {
				if coarse.g.ID == fine.g.ID {
					continue
				}
				if !coarse.spec.SubsumedBy(fine.spec) {
					continue
				}
				sp := coarse.spec
				m.addExpr(&MExpr{Kind: OpReAgg, Group: coarse.g.ID, Spec: &sp}, fine.g.ID)
				fine.g.Consumers.union(coarse.g.Consumers)
			}
		}
	}
}
