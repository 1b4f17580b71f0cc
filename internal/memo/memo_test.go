package memo

import (
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/expr"
	"repro/internal/logical"
)

func testCatalog() *catalog.Catalog {
	c := catalog.New()
	mk := func(name string, rows float64) {
		c.MustAddTable(&catalog.Table{
			Name: name, Rows: rows,
			Columns: []catalog.Column{
				{Name: "id", Type: catalog.Int, Width: 8, Distinct: rows, Min: 0, Max: rows},
				{Name: "fk", Type: catalog.Int, Width: 8, Distinct: rows / 10, Min: 0, Max: rows},
				{Name: "v", Type: catalog.Int, Width: 8, Distinct: 100, Min: 0, Max: 100},
				{Name: "pay", Type: catalog.String, Width: 100, Distinct: rows, Min: 0, Max: rows},
			},
			Indexes: []catalog.Index{{Column: "id", Clustered: true}},
		})
	}
	mk("t1", 10000)
	mk("t2", 20000)
	mk("t3", 30000)
	mk("t4", 40000)
	return c
}

func build(t *testing.T, queries ...*logical.Query) *Memo {
	t.Helper()
	b := &logical.Batch{}
	for _, q := range queries {
		b.Add(q)
	}
	m, err := Build(testCatalog(), cost.Default(), b)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return m
}

func TestLeafUnificationAcrossQueries(t *testing.T) {
	// The same selection in two queries — even under different aliases —
	// must land in one group.
	q1 := logical.NewBlock().Scan("t1", "a").Scan("t2", "b").
		Cmp("a.v", expr.LT, 50).Join("a.fk", "b.id").Query("q1")
	q2 := logical.NewBlock().Scan("t1", "x").Scan("t3", "y").
		Cmp("x.v", expr.LT, 50).Join("x.fk", "y.id").Query("q2")
	m := build(t, q1, q2)
	var sel []*Group
	for _, g := range m.Groups() {
		if g.Leaf && g.BasePred {
			sel = append(sel, g)
		}
	}
	if len(sel) != 1 {
		t.Fatalf("expected one unified σ(t1) group, got %d", len(sel))
	}
	if sel[0].Consumers.Len() != 2 {
		t.Errorf("σ(t1) consumers = %v, want both queries", sel[0].Consumers)
	}
}

func TestJoinSubsetUnification(t *testing.T) {
	// Example 1 shape: {B,C} appears in both queries and must be one group.
	q1 := logical.NewBlock().Scan("t1", "a").Scan("t2", "b").Scan("t3", "c").
		Join("a.fk", "b.id").Join("b.fk", "c.id").Query("q1")
	q2 := logical.NewBlock().Scan("t2", "b").Scan("t3", "c").Scan("t4", "d").
		Join("b.fk", "c.id").Join("c.fk", "d.id").Query("q2")
	m := build(t, q1, q2)
	shared := 0
	for _, g := range m.Groups() {
		if !g.Leaf && g.Consumers.Len() >= 2 && strings.HasPrefix(g.Sig, "join|") {
			shared++
		}
	}
	if shared != 1 {
		t.Errorf("expected exactly the B⋈C group shared, got %d shared join groups", shared)
	}
}

func TestDifferentCondsDifferentGroups(t *testing.T) {
	// Joining the same leaves on different conditions is a different group.
	q1 := logical.NewBlock().Scan("t1", "a").Scan("t2", "b").Join("a.fk", "b.id").Query("q1")
	q2 := logical.NewBlock().Scan("t1", "a").Scan("t2", "b").Join("a.id", "b.fk").Query("q2")
	m := build(t, q1, q2)
	joins := 0
	for _, g := range m.Groups() {
		if strings.HasPrefix(g.Sig, "join|") {
			joins++
		}
	}
	if joins != 2 {
		t.Errorf("expected 2 distinct join groups, got %d", joins)
	}
}

func TestIdenticalQueriesShareRoot(t *testing.T) {
	mkq := func(name string) *logical.Query {
		return logical.NewBlock().Scan("t1", "a").Scan("t2", "b").
			Join("a.fk", "b.id").GroupBy("a.v").Count().Query(name)
	}
	m := build(t, mkq("q1"), mkq("q2"))
	if m.QueryRoots[0] != m.QueryRoots[1] {
		t.Errorf("identical queries should unify to the same root: %d vs %d",
			m.QueryRoots[0], m.QueryRoots[1])
	}
	root := m.Group(m.QueryRoots[0])
	if root.Consumers.Len() != 2 {
		t.Errorf("shared root consumers = %d", root.Consumers.Len())
	}
	sh := m.Shareable()
	found := false
	for _, id := range sh {
		if id == root.ID {
			found = true
		}
	}
	if !found {
		t.Error("shared root must be shareable")
	}
}

func TestBushyExpansionCounts(t *testing.T) {
	// A 4-clique join graph: all 2^4−1−4 = 11 multi-leaf subsets are
	// connected, so 11 join groups plus 4 leaves.
	q := logical.NewBlock().Scan("t1", "a").Scan("t2", "b").Scan("t3", "c").Scan("t4", "d").
		Join("a.fk", "b.id").Join("b.fk", "c.id").Join("c.fk", "d.id").
		Join("a.id", "c.v").Join("b.v", "d.fk").Join("a.v", "d.id").
		Query("clique")
	m := build(t, q)
	joins, leaves := 0, 0
	for _, g := range m.Groups() {
		if g.Leaf {
			leaves++
		} else if strings.HasPrefix(g.Sig, "join|") {
			joins++
		}
	}
	if leaves != 4 || joins != 11 {
		t.Errorf("got %d leaves, %d join groups; want 4, 11", leaves, joins)
	}
	// A chain graph a-b-c-d instead: connected subsets are the 6 contiguous
	// ranges of length ≥ 2.
	chain := logical.NewBlock().Scan("t1", "a").Scan("t2", "b").Scan("t3", "c").Scan("t4", "d").
		Join("a.fk", "b.id").Join("b.fk", "c.id").Join("c.fk", "d.id").
		Query("chain")
	m2 := build(t, chain)
	joins = 0
	for _, g := range m2.Groups() {
		if strings.HasPrefix(g.Sig, "join|") {
			joins++
		}
	}
	if joins != 6 {
		t.Errorf("chain expansion: %d join groups, want 6", joins)
	}
}

func TestCommutativityNotDuplicated(t *testing.T) {
	q := logical.NewBlock().Scan("t1", "a").Scan("t2", "b").Join("a.fk", "b.id").Query("q")
	m := build(t, q)
	for _, g := range m.Groups() {
		if strings.HasPrefix(g.Sig, "join|") {
			if len(g.Exprs) != 1 {
				t.Errorf("two-way join group has %d exprs, want 1 (commutativity is physical)", len(g.Exprs))
			}
		}
	}
}

func TestSelfJoinDistinctOccurrences(t *testing.T) {
	// Two occurrences of the same table+predicate must get distinct groups
	// (occurrence ordinals), or the subset model breaks.
	q := logical.NewBlock().Scan("t1", "n1").Scan("t1", "n2").Scan("t2", "b").
		Join("n1.id", "b.fk").Join("n2.id", "b.v").
		Query("self")
	m := build(t, q)
	leafT1 := 0
	for _, g := range m.Groups() {
		if g.Leaf {
			for _, e := range g.Exprs {
				if e.Kind == OpScan && e.Table == "t1" {
					leafT1++
				}
			}
		}
	}
	if leafT1 != 2 {
		t.Errorf("self-join produced %d t1 leaf groups, want 2", leafT1)
	}
}

func TestSelectSubsumptionEdge(t *testing.T) {
	q1 := logical.NewBlock().Scan("t1", "a").Scan("t2", "b").
		Cmp("a.v", expr.LT, 30).Join("a.fk", "b.id").Query("q1")
	q2 := logical.NewBlock().Scan("t1", "a").Scan("t2", "b").
		Cmp("a.v", expr.LT, 60).Join("a.fk", "b.id").Query("q2")
	m := build(t, q1, q2)
	var stricter, looser *Group
	for _, g := range m.Groups() {
		if g.Leaf && g.BasePred {
			for _, e := range g.Exprs {
				if e.Kind == OpScan {
					if strings.Contains(e.Pred.Fingerprint(), "<30") {
						stricter = g
					} else if strings.Contains(e.Pred.Fingerprint(), "<60") {
						looser = g
					}
				}
			}
		}
	}
	if stricter == nil || looser == nil {
		t.Fatal("selection groups missing")
	}
	hasFilter := false
	for _, e := range stricter.Exprs {
		if e.Kind == OpFilter && e.Children[0] == looser.ID {
			hasFilter = true
			// The filter predicate must be rewritten to the looser group's
			// canonical alias so it can evaluate against its output.
			for _, c := range e.Pred.Conj {
				if c.Col.Alias != CanonAlias(looser.ID) {
					t.Errorf("filter predicate alias %q, want %q", c.Col.Alias, CanonAlias(looser.ID))
				}
			}
		}
	}
	if !hasFilter {
		t.Error("no subsumption edge from σ<30 to σ<60")
	}
	for _, e := range looser.Exprs {
		if e.Kind == OpFilter {
			t.Error("looser selection must not derive from stricter")
		}
	}
	// The looser group inherits the stricter group's consumers and is
	// therefore shareable.
	if looser.Consumers.Len() < 2 {
		t.Errorf("looser consumers = %v", looser.Consumers)
	}
}

func TestAggregateSubsumptionEdge(t *testing.T) {
	fine := logical.NewBlock().Scan("t1", "a").Scan("t2", "b").Join("a.fk", "b.id").
		GroupBy("a.v", "b.v").Sum("a.id").Query("fine")
	coarse := logical.NewBlock().Scan("t1", "a").Scan("t2", "b").Join("a.fk", "b.id").
		GroupBy("a.v").Sum("a.id").Query("coarse")
	m := build(t, fine, coarse)
	reagg := 0
	for _, g := range m.Groups() {
		for _, e := range g.Exprs {
			if e.Kind == OpReAgg {
				reagg++
				if len(e.Spec.GroupBy) != 1 {
					t.Errorf("reagg spec is not the coarse spec: %v", e.Spec.Fingerprint())
				}
			}
		}
	}
	if reagg != 1 {
		t.Errorf("expected 1 ReAgg derivation, got %d", reagg)
	}
}

func TestShareableExcludesPlainScans(t *testing.T) {
	mkq := func(name string) *logical.Query {
		return logical.NewBlock().Scan("t1", "a").Scan("t2", "b").Join("a.fk", "b.id").Query(name)
	}
	m := build(t, mkq("q1"), mkq("q2"))
	for _, id := range m.Shareable() {
		g := m.Group(id)
		if g.Leaf && !g.BasePred {
			t.Errorf("unfiltered base scan group %d is shareable", id)
		}
	}
}

func TestPropsConsistentAcrossDerivations(t *testing.T) {
	// Every derivation of a group must see the same estimated cardinality:
	// the group row count is split-independent by construction.
	q := logical.NewBlock().Scan("t1", "a").Scan("t2", "b").Scan("t3", "c").
		Join("a.fk", "b.id").Join("b.fk", "c.id").Join("a.v", "c.v").
		Query("tri")
	m := build(t, q)
	for _, g := range m.Groups() {
		if g.Props.Rows < 1 {
			t.Errorf("group %d rows %v < 1", g.ID, g.Props.Rows)
		}
		if g.Props.Width < 8 {
			t.Errorf("group %d width %d < 8", g.ID, g.Props.Width)
		}
	}
}

func TestWidthProjection(t *testing.T) {
	// The 100-byte payload column is never referenced, so no group's width
	// should include it.
	q := logical.NewBlock().Scan("t1", "a").Scan("t2", "b").Join("a.fk", "b.id").Query("q")
	m := build(t, q)
	for _, g := range m.Groups() {
		if g.Leaf && g.Props.Width > 24 {
			t.Errorf("leaf group %d width %d; payload column should be projected out", g.ID, g.Props.Width)
		}
	}
}

func TestEmptyBatchRejected(t *testing.T) {
	if _, err := Build(testCatalog(), cost.Default(), &logical.Batch{}); err == nil {
		t.Error("empty batch accepted")
	}
}

func TestInvalidQueryRejected(t *testing.T) {
	q := logical.NewBlock().Scan("nope", "a").Query("bad")
	b := &logical.Batch{}
	b.Add(q)
	if _, err := Build(testCatalog(), cost.Default(), b); err == nil {
		t.Error("invalid query accepted")
	}
}

func TestExprDeduplication(t *testing.T) {
	// Building the same query twice must not duplicate operator nodes.
	mkq := func(n string) *logical.Query {
		return logical.NewBlock().Scan("t1", "a").Scan("t2", "b").Join("a.fk", "b.id").Query(n)
	}
	m1 := build(t, mkq("q"))
	m2 := build(t, mkq("q1"), mkq("q2"))
	if m2.NumExprs() != m1.NumExprs() {
		t.Errorf("duplicate query added exprs: %d vs %d", m2.NumExprs(), m1.NumExprs())
	}
}

func TestShareIndexDescendants(t *testing.T) {
	q1 := logical.NewBlock().Scan("t1", "a").Scan("t2", "b").Scan("t3", "c").
		Cmp("a.v", expr.LT, 50).
		Join("a.fk", "b.id").Join("b.fk", "c.id").Query("q1")
	q2 := logical.NewBlock().Scan("t1", "a").Scan("t2", "b").
		Cmp("a.v", expr.LT, 50).
		Join("a.fk", "b.id").Query("q2")
	m := build(t, q1, q2)
	si := m.NewShareIndex()
	if si.Len() == 0 {
		t.Fatal("no shareable nodes")
	}
	// The root of q1 must see every shareable node below it; a leaf sees at
	// most itself.
	rootBits := si.Descendants(m.QueryRoots[0])
	nonzero := false
	for _, w := range rootBits {
		if w != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Error("root sees no shareable descendants")
	}
	// The mask hash must differ when a descendant's bit flips and stay
	// equal for bits outside the descendant set.
	mat := si.NewMatSet()
	h0 := HashMasked(rootBits, mat)
	for _, id := range m.Shareable() {
		si.Set(mat, id)
		break
	}
	h1 := HashMasked(rootBits, mat)
	if h0 == h1 {
		t.Error("HashMasked ignored a shareable descendant flip")
	}
}

func TestShareIndexSetOps(t *testing.T) {
	q1 := logical.NewBlock().Scan("t1", "a").Scan("t2", "b").
		Cmp("a.v", expr.LT, 50).Join("a.fk", "b.id").Query("q1")
	q2 := logical.NewBlock().Scan("t1", "a").Scan("t3", "c").
		Cmp("a.v", expr.LT, 50).Join("a.fk", "c.id").Query("q2")
	m := build(t, q1, q2)
	si := m.NewShareIndex()
	sh := m.Shareable()
	if len(sh) == 0 {
		t.Fatal("no shareable nodes")
	}
	mat := si.NewMatSet()
	if si.Has(mat, sh[0]) {
		t.Error("fresh set has a bit")
	}
	if !si.Set(mat, sh[0]) || !si.Has(mat, sh[0]) {
		t.Error("Set/Has broken")
	}
	p := si.Pos(sh[0])
	mat[p/64] &^= 1 << uint(p%64)
	if si.Has(mat, sh[0]) {
		t.Error("Has still reads a cleared bit")
	}
	if si.Pos(GroupID(99999)) != -1 {
		t.Error("Pos of non-shareable should be -1")
	}
	if si.Set(mat, GroupID(99999)) {
		t.Error("Set of non-shareable should report false")
	}
}

// A ConsumerSet answers "≥ 2 distinct contexts" exactly as the full set
// would, under any sequence of inserts and unions: random walks over a few
// sets, held against maps of every member.
func TestConsumerSetExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for walk := 0; walk < 2000; walk++ {
		var capped [4]ConsumerSet
		var full [4]map[int32]bool
		for i := range full {
			full[i] = map[int32]bool{}
		}
		for step := 0; step < 12; step++ {
			i := rng.IntN(len(capped))
			if rng.IntN(2) == 0 {
				id := 1 + rng.Int32N(4)
				capped[i].add(id)
				full[i][id] = true
			} else {
				j := rng.IntN(len(capped))
				capped[i].union(capped[j])
				for id := range full[j] {
					full[i][id] = true
				}
			}
			for k := range capped {
				if got, want := capped[k].Len(), min(len(full[k]), 2); got != want {
					t.Fatalf("walk %d step %d: set %d holds %v, Len %d, want %d (members %v)",
						walk, step, k, capped[k], got, want, full[k])
				}
			}
		}
	}
}
