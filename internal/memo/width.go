package memo

import "repro/internal/expr"

// projectWidths applies the "project early" model: every leaf scan projects
// to the columns referenced anywhere in the batch (join conditions,
// predicates, aggregations — noted in Memo.used as each was canonicalized),
// and intermediate widths are recomputed from the projected leaf widths.
// Without this, intermediate results would carry never-referenced payload
// columns (comments, addresses) and materialization costs would be wildly
// overestimated — real Volcano-style optimizers push projections to the
// scans.
//
// Widths only affect cost estimation (block counts); cardinalities and DAG
// structure are untouched, so this runs once after the DAG is complete.
func (m *Memo) projectWidths() {
	// Leaf widths: sum of the widths of the used table columns (minimum
	// one 8-byte column so row counts still occupy space). A derived leaf
	// (nested block root) is not a scan and is handled below.
	for _, l := range m.scans {
		w := 0
		for _, c := range l.table.Columns {
			if _, ok := m.used[expr.Col{Alias: l.alias, Column: c.Name}]; ok {
				w += c.Width
			}
		}
		l.g.Props.Width = max(w, 8)
	}

	// Non-leaf widths in id order (children always precede parents; every
	// non-leaf group has a structural OpJoin or OpAgg derivation, and all
	// derivations of a group agree on width).
	for _, g := range m.groups {
		if g.Leaf {
			continue
		}
	derive:
		for _, e := range g.Exprs {
			switch e.Kind {
			case OpJoin:
				g.Props.Width = m.groups[e.Children[0]].Props.Width + m.groups[e.Children[1]].Props.Width
				break derive
			case OpAgg:
				g.Props.Width = 8 * (len(e.Spec.GroupBy) + len(e.Spec.Aggs))
				break derive
			}
		}
		if g.Props.Width < 8 {
			g.Props.Width = 8
		}
	}
}
