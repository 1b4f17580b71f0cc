package physical

import (
	"fmt"
	"strings"

	"repro/internal/expr"
	"repro/internal/memo"
)

// PlanNode is one operator of an extracted physical plan.
type PlanNode struct {
	Op       string
	Group    memo.GroupID
	Table    string // tablescan/indexscan
	IndexCol string // indexscan
	Pred     expr.Pred
	Conds    []expr.EqJoin
	Spec     *expr.AggSpec
	Order    Order // delivered order
	Children []*PlanNode

	Rows float64 // estimated output rows
	Cost float64 // cumulative use-cost of the subtree
}

// MatStep is one materialization of the consolidated plan: the plan that
// computes a shared node plus the cost of writing it out.
type MatStep struct {
	Group     memo.GroupID
	Plan      *PlanNode
	WriteCost float64
}

// ConsolidatedPlan is the full MQO result: materialization steps in
// dependency order followed by one plan per query.
type ConsolidatedPlan struct {
	Steps      []MatStep
	Queries    []*PlanNode
	QueryNames []string
	Total      float64
}

// BestPlan extracts the optimal consolidated plan for the given
// materialization set. Its Total equals BestCost(mat). Every cost it prices
// goes through the run's caches, so a repeat of the extraction reads them
// (worker.keeps). It shares worker 0 with the other sequential entry points
// and is not safe for concurrent use.
func (s *Searcher) BestPlan(mat NodeSet) *ConsolidatedPlan {
	w := s.solo(mat)
	w.begin(mat.bits)
	w.extracting = true
	defer func() { w.extracting = false }()
	cp := &ConsolidatedPlan{QueryNames: append([]string(nil), s.M.QueryNames...)}
	for _, slot := range s.depthOrder { // dependencies first
		if !w.bits.HasSlot(int(slot)) {
			continue
		}
		id := s.SI.GroupAt(int(slot))
		w.stats.ExtractCalls++
		p := w.extractCompute(id, 0, s.cells.anyCell(id))
		wc := s.writeArr[id]
		cp.Steps = append(cp.Steps, MatStep{Group: id, Plan: p, WriteCost: wc})
		cp.Total += p.Cost + wc
	}
	for _, root := range s.M.QueryRoots {
		p := w.extractUse(root, 0, s.cells.anyCell(root))
		cp.Queries = append(cp.Queries, p)
		cp.Total += p.Cost
	}
	w.flushStats()
	return cp
}

// extractUse mirrors useCost, returning the chosen plan.
func (w *worker) extractUse(g memo.GroupID, ord ordID, cell int) *PlanNode {
	s := w.s
	if cellCheck {
		s.checkCell(g, ord, cell)
	}
	w.stats.ExtractCalls++
	compCost := w.compute(g, ord, cell)
	if w.matHas(g) {
		alt, needSort := w.matUseCost(g, ord)
		if alt < compCost {
			node := &PlanNode{
				Op:    OpNameMatScan,
				Group: g,
				Order: s.orders[w.stored(g)],
				Rows:  s.M.Group(g).Props.Rows,
				Cost:  s.readArr[g],
			}
			if needSort {
				node = &PlanNode{
					Op:       OpNameSort,
					Group:    g,
					Order:    s.orders[ord],
					Children: []*PlanNode{node},
					Rows:     node.Rows,
					Cost:     alt,
				}
			}
			return node
		}
	}
	return w.extractCompute(g, ord, cell)
}

// extractCompute mirrors compute, returning the chosen plan. It prices the
// group's templates directly — the same bitset/template fast path the cost
// search runs on — and materializes a PlanNode only for the winner, so
// extraction allocates nothing per considered implementation. ExtractCalls
// is counted at the resolution entry points (extractUse and BestPlan's
// step loop), once per resolved node.
func (w *worker) extractCompute(g memo.GroupID, ord ordID, cell int) *PlanNode {
	s := w.s
	if cellCheck {
		s.checkCell(g, ord, cell)
	}
	best := w.compute(g, ord, cell)
	for i := range s.tmpls[g] {
		t := &s.tmpls[g][i]
		cost, out, ok := w.price(t, ord, cell, inf)
		if !ok || cost > best+1e-9 {
			continue
		}
		return w.buildPlan(g, t, ord, cell, cost, out)
	}
	// Enforcer: compute unordered, then sort.
	if ord != 0 {
		child := w.extractCompute(g, 0, s.cells.anyCell(g))
		return &PlanNode{
			Op:       OpNameSort,
			Group:    g,
			Order:    s.orders[ord],
			Children: []*PlanNode{child},
			Rows:     child.Rows,
			Cost:     child.Cost + s.sortArr[g],
		}
	}
	panic(fmt.Sprintf("physical: no plan for group %d (internal error)", g))
}

// buildPlan materializes the plan node of one priced template. req is the
// order required of the group and cell its cell (forwarded to the child by
// the passthrough filter); out is the order the template delivers.
func (w *worker) buildPlan(g memo.GroupID, t *tmpl, req ordID, cell int, cost float64, out ordID) *PlanNode {
	s := w.s
	grp := s.M.Group(g)
	node := &PlanNode{
		Op:       t.op,
		Group:    g,
		Order:    s.orders[out],
		Rows:     grp.Props.Rows,
		Cost:     cost,
		IndexCol: t.indexCol,
	}
	childOrd := [2]ordID{t.child[0].ord, t.child[1].ord}
	childCell := [2]int{int(t.child[0].cell), int(t.child[1].cell)}
	if t.passthrough {
		childOrd[0], childCell[0] = req, cell+childCell[0]
	}
	e := t.e
	switch e.Kind {
	case memo.OpScan:
		node.Table = e.Table
		node.Pred = e.Pred
	case memo.OpFilter:
		node.Pred = e.Pred
		node.Children = []*PlanNode{w.extractUse(e.Children[0], childOrd[0], childCell[0])}
	case memo.OpJoin:
		node.Conds = e.Conds
		first, second := e.Children[0], e.Children[1]
		if t.swap {
			first, second = second, first
		}
		node.Children = []*PlanNode{
			w.extractUse(first, childOrd[0], childCell[0]),
			w.extractUse(second, childOrd[1], childCell[1]),
		}
	case memo.OpAgg, memo.OpReAgg:
		node.Spec = e.Spec
		node.Children = []*PlanNode{w.extractUse(e.Children[0], childOrd[0], childCell[0])}
	}
	return node
}

// String renders the consolidated plan for humans.
func (cp *ConsolidatedPlan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "consolidated plan: total estimated cost %.1f ms\n", cp.Total)
	for i, st := range cp.Steps {
		fmt.Fprintf(&b, "materialize[%d] group %d (write %.1f ms):\n", i, st.Group, st.WriteCost)
		writePlan(&b, st.Plan, 1)
	}
	for i, q := range cp.Queries {
		name := fmt.Sprintf("query %d", i)
		if i < len(cp.QueryNames) {
			name = cp.QueryNames[i]
		}
		fmt.Fprintf(&b, "%s:\n", name)
		writePlan(&b, q, 1)
	}
	return b.String()
}

func writePlan(b *strings.Builder, n *PlanNode, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	fmt.Fprintf(b, "%s", n.Op)
	switch n.Op {
	case OpNameScan:
		fmt.Fprintf(b, "(%s)", n.Table)
		if !n.Pred.True() {
			fmt.Fprintf(b, " σ[%s]", n.Pred)
		}
	case OpNameIndexScan:
		fmt.Fprintf(b, "(%s on %s)", n.Table, n.IndexCol)
		if !n.Pred.True() {
			fmt.Fprintf(b, " σ[%s]", n.Pred)
		}
	case OpNameFilter:
		fmt.Fprintf(b, " σ[%s]", n.Pred)
	case OpNameMergeJoin, OpNameHashJoin, OpNameBNLJ:
		fmt.Fprintf(b, " [%s]", expr.JoinFingerprint(n.Conds))
	case OpNameSortAgg, OpNameHashAgg, OpNameReAgg:
		if n.Spec != nil {
			fmt.Fprintf(b, " [%s]", n.Spec.Fingerprint())
		}
	case OpNameSort:
		fmt.Fprintf(b, " [%s]", n.Order.Key())
	case OpNameMatScan:
		fmt.Fprintf(b, "(group %d)", n.Group)
	}
	fmt.Fprintf(b, "  rows=%.0f cost=%.1f\n", n.Rows, n.Cost)
	for _, c := range n.Children {
		writePlan(b, c, depth+1)
	}
}
