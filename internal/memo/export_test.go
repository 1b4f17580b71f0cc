package memo

import (
	"slices"
	"strconv"
	"strings"

	"repro/internal/expr"
)

// Exported for the external test package (memo_test), which exists
// because comparing searcher fingerprints imports internal/physical, and
// physical imports memo.
var TestCatalog = testCatalog

// ExprKey renders an operator node: kind, owning group, children in order
// and canonical parameters. Equal renderings mean identical operators; the
// tests use it to compare DAGs and to state that no group holds one twice.
// The predicate is rendered from a copy because Pred.Fingerprint sorts its
// receiver's conjuncts in place, and the tests also pin stored order.
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
		b.WriteString(expr.Pred{Conj: slices.Clone(e.Pred.Conj)}.Fingerprint())
	case OpJoin:
		b.WriteString(expr.JoinFingerprint(e.Conds))
	case OpAgg, OpReAgg:
		b.WriteString(e.Spec.Fingerprint())
	}
	return b.String()
}
