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
//
// Build records each fact once, where it is first known, and keeps no
// mechanism to find it again. Creating a base-relation leaf notes three
// things (scanLeaf): the group with its canonical alias, its catalog
// table, and its selection with the alias anonymized — the predicate the
// leaf's signature is rendered from, and the one select subsumption
// compares across the leaves of a table. Every column is noted as used at
// the moment it is canonicalized (resolver.col, a leaf's scan predicate, a
// subsumption filter), which is all that width projection needs. A
// group's operators are reachable from the group only: there are no parent
// links.
//
// No table of operators backs the construction, because it cannot produce
// a duplicate: a scan or an aggregate is added only together with the
// group it creates, a subsumption edge once per ordered pair of distinct
// groups, and a join once per partition of a subset the batch meets for
// the first time. One site can repeat itself — a block that enumerates the
// partitions of a join group already filled by an earlier block, or by
// this block's twin when two of its sources resolve to one group — and it
// asks the group whether it already joins that ordered child pair
// (Group.joins, an integer compare). The pair is ordered because a query
// that lists the same sources the other way round contributes the commuted
// pair, which is a different operator and stays; and the pair decides the
// whole operator, since a join's conditions are its group's conditions
// minus its children's. TestNoDuplicateExprs and FuzzBuildInvariants state
// the invariant; TestBuildDigestPinned pins the resulting DAGs.
package memo

import (
	"fmt"
	"slices"
	"strconv"
	"sync"

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
	Children []GroupID // input groups: a window of kids
	kids     [2]GroupID

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
	Consumers ConsumerSet
}

// ConsumerSet is a set of consumption contexts that keeps at most two of
// them. A context is one buildBlock call (a query's root block, or a
// derived table inside one), named by a positive id. Only "≥ 2 distinct"
// is ever asked of the set, and a two-slot set answers that exactly under
// insert and under union: it holds every member while there are fewer than
// two, and two distinct ones after.
type ConsumerSet [2]int32

// Len returns the number of distinct contexts, counting two or more as 2.
func (c ConsumerSet) Len() int {
	n := 0
	for _, id := range c {
		if id != 0 {
			n++
		}
	}
	return n
}

// add inserts a context id (> 0).
func (c *ConsumerSet) add(id int32) {
	switch {
	case c[0] == 0:
		c[0] = id
	case c[0] != id && c[1] == 0:
		c[1] = id
	}
}

// union inserts every member of o.
func (c *ConsumerSet) union(o ConsumerSet) {
	for _, id := range o {
		if id != 0 {
			c.add(id)
		}
	}
}

// joins reports whether the group already derives itself as the join of
// this ordered child pair.
func (g *Group) joins(l, r GroupID) bool {
	for _, e := range g.Exprs {
		if e.Kind == OpJoin && e.Children[0] == l && e.Children[1] == r {
			return true
		}
	}
	return false
}

// scanLeaf is what Build notes when it creates a base-relation leaf.
type scanLeaf struct {
	g     *Group
	table *catalog.Table
	// alias is the group's canonical alias (CanonAlias): the qualifier of
	// the leaf's output columns, which subsumption filters read and width
	// projection looks up.
	alias string
	// anon is the pushed-down selection under the anonymous alias "$", so
	// the selections of two leaves of one table compare directly.
	anon expr.Pred
}

// Memo is the combined AND-OR DAG for a batch of queries. Build returns it
// finished, and from then on it is read-only: a memo built through a
// BuildCache is handed to every later build of the same batch, so
// concurrent runs — and whoever holds RunResult.Memo — share one object.
type Memo struct {
	Cat   *catalog.Catalog
	Model cost.Model

	groups   []*Group
	numExprs int
	// Construction state, released when Build returns: the signature
	// table, the base-relation leaves in creation order, every canonical
	// column some operator references (leaf scans project to these,
	// projectWidths), and the number of consumption contexts opened so far
	// (the last one's id).
	bySig    map[string]GroupID
	scans    []scanLeaf
	used     map[expr.Col]struct{}
	contexts int32

	// compiled is what a user of the finished DAG derived from it once, for
	// every later user to share (Compiled).
	compiled     any
	compiledOnce sync.Once

	// QueryRoots holds the root group of each query in batch order.
	QueryRoots []GroupID
	// QueryNames holds the query names in batch order.
	QueryNames []string
}

// New returns an empty memo over the given catalog and cost model.
func New(cat *catalog.Catalog, model cost.Model) *Memo {
	return &Memo{
		Cat:   cat,
		Model: model,
		bySig: map[string]GroupID{},
		used:  map[expr.Col]struct{}{},
	}
}

// Compiled returns the value the first call's compile produced for this
// memo: the slot a layer above fills once with the immutable structures it
// derives from the finished DAG (physical.NewSearcher keeps its compiled
// search space here), so a memo reused through a BuildCache brings them
// along. Safe for concurrent use; compile runs at most once.
func (m *Memo) Compiled(compile func() any) any {
	m.compiledOnce.Do(func() { m.compiled = compile() })
	return m.compiled
}

// Group returns the group with the given id.
func (m *Memo) Group(id GroupID) *Group { return m.groups[id] }

// NumGroups returns the number of equivalence nodes in the DAG.
func (m *Memo) NumGroups() int { return len(m.groups) }

// NumExprs returns the number of operator nodes in the DAG.
func (m *Memo) NumExprs() int { return m.numExprs }

// Groups returns all groups in creation order.
func (m *Memo) Groups() []*Group { return m.groups }

// internGroup returns the group with the given signature, creating an
// empty one if new; the caller fills Props on creation (properties may
// depend on the assigned GroupID via the canonical alias).
func (m *Memo) internGroup(sig string) (*Group, bool) {
	if id, ok := m.bySig[sig]; ok {
		return m.groups[id], false
	}
	g := &Group{ID: GroupID(len(m.groups)), Sig: sig}
	m.groups = append(m.groups, g)
	m.bySig[sig] = g.ID
	return g, true
}

// addExpr appends an operator node over the given input groups (at most
// two) to its group; the node holds them itself, so it is one allocation.
// Callers add each operator once (see the package comment).
func (m *Memo) addExpr(e *MExpr, children ...GroupID) {
	n := copy(e.kids[:], children)
	e.Children = e.kids[:n:n]
	g := m.groups[e.Group]
	g.Exprs = append(g.Exprs, e)
	m.numExprs++
}

// noteUsed records that some operator references the canonical column.
func (m *Memo) noteUsed(c expr.Col) { m.used[c] = struct{}{} }

// addConsumer records that the given context can consume the group.
func (m *Memo) addConsumer(id GroupID, ctx int32) {
	m.groups[id].Consumers.add(ctx)
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
