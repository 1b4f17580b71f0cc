package memo

import (
	"strconv"
	"strings"

	"repro/internal/expr"
)

// Exported for the external test package (memo_test), which exists
// because comparing searcher fingerprints imports internal/physical, and
// physical imports memo.
var TestCatalog = testCatalog

// HeldNodeCap is the BuildCache's bound on held operator nodes.
const HeldNodeCap = heldNodeCap

// ExprKey renders an operator node: kind, owning group, children in order
// and canonical parameters. Equal renderings mean identical operators; the
// tests use it to compare DAGs and to state that no group holds one twice.
func ExprKey(e *MExpr) string {
	var b strings.Builder
	b.WriteString(e.Kind.String())
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(int(e.Group)))
	b.WriteByte('|')
	for _, c := range e.Children {
		b.WriteString(strconv.Itoa(int(c)))
		b.WriteByte(',')
	}
	b.WriteByte('|')
	switch e.Kind {
	case OpScan:
		b.WriteString(e.Table)
		b.WriteByte('|')
		fallthrough
	case OpFilter:
		b.WriteString(e.Pred.Fingerprint())
	case OpJoin:
		b.WriteString(expr.JoinFingerprint(e.Conds))
	case OpAgg, OpReAgg:
		b.WriteString(e.Spec.Fingerprint())
	}
	return b.String()
}
