package physical

import (
	"fmt"

	"repro/internal/memo"
)

// ValidatePlan recomputes the cost of an extracted consolidated plan
// bottom-up from the cost model and compares it with the costs recorded
// during extraction; it also checks structural invariants (materialization
// steps precede their readers, every matscan has a step, orders delivered
// match the operators). It is the independent audit used by tests and by
// `cmd/mqo` after extraction — extraction and search share candidate
// generation, so an inconsistency means a real bug, not drift.
func (s *Searcher) ValidatePlan(cp *ConsolidatedPlan, mat NodeSet) error {
	seen := map[memo.GroupID]bool{}
	total := 0.0
	for i, st := range cp.Steps {
		if !mat.Has(st.Group) {
			return fmt.Errorf("step %d materializes group %d not in S", i, st.Group)
		}
		if err := s.validateNode(st.Plan, seen); err != nil {
			return fmt.Errorf("step %d: %w", i, err)
		}
		if want := s.writeArr[st.Group]; !approxEqual(st.WriteCost, want) {
			return fmt.Errorf("step %d: write cost %v, model says %v", i, st.WriteCost, want)
		}
		seen[st.Group] = true
		total += st.Plan.Cost + st.WriteCost
	}
	if len(seen) != mat.Len() {
		return fmt.Errorf("plan materializes %d groups, S has %d", len(seen), mat.Len())
	}
	for qi, q := range cp.Queries {
		if err := s.validateNode(q, seen); err != nil {
			return fmt.Errorf("query %d: %w", qi, err)
		}
		total += q.Cost
	}
	if !approxEqual(total, cp.Total) {
		return fmt.Errorf("recomputed total %v != plan total %v", total, cp.Total)
	}
	return nil
}

// validateNode checks one plan subtree: children costs add up, matscans
// only read already-materialized groups, and delivered orders are sane.
func (s *Searcher) validateNode(n *PlanNode, matDone map[memo.GroupID]bool) error {
	for _, c := range n.Children {
		if err := s.validateNode(c, matDone); err != nil {
			return err
		}
	}
	childSum := 0.0
	for _, c := range n.Children {
		childSum += c.Cost
	}
	switch n.Op {
	case OpNameMatScan:
		if !matDone[n.Group] {
			return fmt.Errorf("matscan of group %d before its materialization step", n.Group)
		}
		if want := s.readArr[n.Group]; !approxEqual(n.Cost, want) {
			return fmt.Errorf("matscan group %d cost %v, model says %v", n.Group, n.Cost, want)
		}
	case OpNameSort:
		if len(n.Order) == 0 {
			return fmt.Errorf("sort node with no order")
		}
		if want := childSum + s.sortArr[n.Group]; !approxEqual(n.Cost, want) {
			return fmt.Errorf("sort over group %d cost %v, want %v", n.Group, n.Cost, want)
		}
	case OpNameScan, OpNameIndexScan:
		if n.Table == "" {
			return fmt.Errorf("scan without a table")
		}
		if n.Cost <= 0 {
			return fmt.Errorf("scan of %s with non-positive cost %v", n.Table, n.Cost)
		}
	default:
		// Local cost must be non-negative: subtree cost ≥ children total.
		if n.Cost < childSum-1e-6 {
			return fmt.Errorf("%s over group %d: subtree cost %v below children total %v",
				n.Op, n.Group, n.Cost, childSum)
		}
	}
	if n.Rows < 0 {
		return fmt.Errorf("%s over group %d: negative row estimate", n.Op, n.Group)
	}
	return nil
}

func approxEqual(a, b float64) bool {
	d := a - b
	return d < 1e-6 && d > -1e-6
}
