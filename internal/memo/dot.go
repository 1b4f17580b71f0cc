package memo

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteDOT renders the AND-OR DAG in Graphviz DOT form: equivalence nodes
// as boxes (labelled with their signature, estimated rows and consumer
// count; shareable nodes shaded), operator nodes as ellipses. Useful for
// inspecting what the batch shares:
//
//	go run ./cmd/mqo -dot < batch.sql | dot -Tsvg > dag.svg
func (m *Memo) WriteDOT(w io.Writer, shareable []GroupID) error {
	share := make(map[GroupID]bool, len(shareable))
	for _, id := range shareable {
		share[id] = true
	}
	if _, err := fmt.Fprintln(w, "digraph lqdag {\n  rankdir=BT;\n  node [fontsize=10];"); err != nil {
		return err
	}
	for _, g := range m.groups {
		attrs := "shape=box"
		if share[g.ID] {
			attrs += ", style=filled, fillcolor=lightyellow"
		}
		uses := strconv.Itoa(g.Consumers.Len())
		if uses == "2" {
			uses = "2+" // the set keeps two contexts: it knows only "at least"
		}
		label := fmt.Sprintf("g%d\\n%s\\nrows=%.0f uses=%s",
			g.ID, dotEscape(shorten(g.Sig)), g.Props.Rows, uses)
		if _, err := fmt.Fprintf(w, "  g%d [%s, label=\"%s\"];\n", g.ID, attrs, label); err != nil {
			return err
		}
		for ei, e := range g.Exprs {
			op := fmt.Sprintf("g%de%d", g.ID, ei)
			olabel := e.Kind.String()
			switch e.Kind {
			case OpScan:
				olabel = "scan " + e.Table
				if !e.Pred.True() {
					olabel += "\\nσ " + dotEscape(e.Pred.String())
				}
			case OpFilter:
				olabel = "σ " + dotEscape(e.Pred.String())
			case OpAgg, OpReAgg:
				olabel = e.Kind.String() + "\\n" + dotEscape(e.Spec.Fingerprint())
			}
			if _, err := fmt.Fprintf(w, "  %s [shape=ellipse, label=\"%s\"];\n  %s -> g%d;\n",
				op, olabel, op, g.ID); err != nil {
				return err
			}
			for _, ch := range e.Children {
				if _, err := fmt.Fprintf(w, "  g%d -> %s;\n", ch, op); err != nil {
					return err
				}
			}
		}
	}
	for qi, root := range m.QueryRoots {
		name := fmt.Sprintf("query %d", qi)
		if qi < len(m.QueryNames) {
			name = m.QueryNames[qi]
		}
		if _, err := fmt.Fprintf(w, "  q%d [shape=plaintext, label=\"%s\"];\n  g%d -> q%d [style=dashed];\n",
			qi, dotEscape(name), root, qi); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

func dotEscape(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func shorten(s string) string {
	if len(s) > 60 {
		return s[:57] + "..."
	}
	return s
}
