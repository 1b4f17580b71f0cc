// Package memo implements the Volcano "memo" structure: the AND-OR DAG
// (LQDAG) that compactly represents the combined plan space of a batch of
// queries. Equivalence nodes (Groups) hold alternative operator nodes
// (MExprs); hashing-based unification ensures that common subexpressions —
// within one query or across the batch — map to a single group, which is
// the mechanism Roy et al. [SIGMOD 2000] use to identify sharing
// opportunities.
//
// Column references inside the DAG are canonicalized: each leaf occurrence
// (a base relation with its pushed-down selection, or a derived table) gets
// a group, and all columns are re-qualified with the synthetic alias
// "g<leafGroupID>". Because leaves unify across queries, canonicalized
// predicates and join conditions compare equal exactly when the
// subexpressions are equal, regardless of the aliases the queries used.
package memo

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/cardinality"
	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/expr"
)

// GroupID identifies an equivalence node.
type GroupID int

// CanonAlias returns the synthetic alias under which a leaf group's columns
// are tracked throughout the DAG.
func CanonAlias(id GroupID) string { return "g" + strconv.Itoa(int(id)) }

// OpKind enumerates logical operator kinds.
type OpKind int

// Logical operator kinds.
const (
	// OpScan reads a base relation and applies a pushed-down selection.
	OpScan OpKind = iota
	// OpFilter derives a group from another group by re-applying a
	// predicate; produced by the select-subsumption rule.
	OpFilter
	// OpJoin is an inner equi-join of two groups.
	OpJoin
	// OpAgg is a group-by aggregation over one group.
	OpAgg
	// OpReAgg derives a coarser aggregation from a finer one; produced by
	// the aggregate-subsumption rule.
	OpReAgg
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpScan:
		return "scan"
	case OpFilter:
		return "filter"
	case OpJoin:
		return "join"
	case OpAgg:
		return "agg"
	case OpReAgg:
		return "reagg"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// MExpr is an operator node (AND-node): an operator plus its input groups.
type MExpr struct {
	Kind     OpKind
	Group    GroupID   // owning group
	Children []GroupID // input groups

	// OpScan fields.
	Table string
	Alias string // original alias of the first occurrence (diagnostics)

	// OpScan (pushed-down selection) and OpFilter predicate, canonicalized.
	Pred expr.Pred

	// OpJoin conditions, canonicalized.
	Conds []expr.EqJoin

	// OpAgg / OpReAgg specification, canonicalized.
	Spec *expr.AggSpec
}

// Group is an equivalence node (OR-node): a set of operator nodes that all
// produce the same result, plus estimated relational properties.
type Group struct {
	ID    GroupID
	Sig   string
	Exprs []*MExpr
	Props cardinality.Props

	// Leaf is true for scan/derived leaf groups.
	Leaf bool
	// BasePred is true for a leaf with a non-trivial selection.
	BasePred bool

	// Consumers is the set of distinct consumption contexts (query/block
	// instances) that can use this group; ≥ 2 makes the group shareable.
	Consumers map[string]bool

	// parents are the operator nodes that reference this group as a child.
	parents []*MExpr
}

// Parents returns the operator nodes referencing this group as input.
func (g *Group) Parents() []*MExpr { return g.parents }

// Memo is the combined AND-OR DAG for a batch of queries.
type Memo struct {
	Cat   *catalog.Catalog
	Model cost.Model

	groups []*Group
	bySig  map[string]GroupID
	byExpr map[string]*MExpr

	// QueryRoots holds the root group of each query in batch order.
	QueryRoots []GroupID
	// QueryNames holds the query names in batch order.
	QueryNames []string
}

// New returns an empty memo over the given catalog and cost model.
func New(cat *catalog.Catalog, model cost.Model) *Memo {
	return &Memo{
		Cat:    cat,
		Model:  model,
		bySig:  map[string]GroupID{},
		byExpr: map[string]*MExpr{},
	}
}

// Group returns the group with the given id.
func (m *Memo) Group(id GroupID) *Group { return m.groups[id] }

// NumGroups returns the number of equivalence nodes in the DAG.
func (m *Memo) NumGroups() int { return len(m.groups) }

// NumExprs returns the number of operator nodes in the DAG.
func (m *Memo) NumExprs() int { return len(m.byExpr) }

// Groups returns all groups in creation order.
func (m *Memo) Groups() []*Group { return m.groups }

// internGroup returns the group with the given signature, creating an
// empty one if new; the caller fills Props on creation (properties may
// depend on the assigned GroupID via the canonical alias).
func (m *Memo) internGroup(sig string) (*Group, bool) {
	if id, ok := m.bySig[sig]; ok {
		return m.groups[id], false
	}
	g := &Group{
		ID:        GroupID(len(m.groups)),
		Sig:       sig,
		Consumers: map[string]bool{},
	}
	m.groups = append(m.groups, g)
	m.bySig[sig] = g.ID
	return g, true
}

// addExpr adds an operator node to a group unless an identical node is
// already present, and maintains parent links.
func (m *Memo) addExpr(e *MExpr) *MExpr {
	key := exprKey(e)
	if old, ok := m.byExpr[key]; ok {
		return old
	}
	m.byExpr[key] = e
	g := m.groups[e.Group]
	g.Exprs = append(g.Exprs, e)
	for _, c := range e.Children {
		m.groups[c].parents = append(m.groups[c].parents, e)
	}
	return e
}

// exprKey returns the deduplication key for an operator node. All
// predicates/conditions are already canonicalized, so equal keys mean
// identical operators.
func exprKey(e *MExpr) string {
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
		b.WriteString(e.Pred.Fingerprint())
	case OpFilter:
		b.WriteString(e.Pred.Fingerprint())
	case OpJoin:
		b.WriteString(expr.JoinFingerprint(e.Conds))
	case OpAgg, OpReAgg:
		b.WriteString(e.Spec.Fingerprint())
	}
	return b.String()
}

// addConsumer records that the given context can consume the group.
func (m *Memo) addConsumer(id GroupID, ctx string) {
	m.groups[id].Consumers[ctx] = true
}

// sortedIDs renders a list of group ids canonically.
func sortedIDs(ids []GroupID) string {
	s := slices.Clone(ids)
	slices.Sort(s)
	b := make([]byte, 0, 4*len(s))
	for i, id := range s {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(id), 10)
	}
	return string(b)
}
