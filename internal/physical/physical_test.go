package physical

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/memo"
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
			},
			Indexes: []catalog.Index{{Column: "id", Clustered: true}},
		})
	}
	mk("t1", 50000)
	mk("t2", 100000)
	mk("t3", 80000)
	return c
}

// withProcs runs the rest of the test at GOMAXPROCS n — how a test picks
// how wide BestCostBatchCtx may fan a batch out — and restores it at
// cleanup. No test calls t.Parallel, so nothing else runs meanwhile.
func withProcs(t testing.TB, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func buildSearcher(t testing.TB, queries ...*logical.Query) *Searcher {
	t.Helper()
	b := &logical.Batch{}
	for _, q := range queries {
		b.Add(q)
	}
	m, err := memo.Build(testCatalog(), cost.Default(), b)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return NewSearcher(m)
}

func sharedPairQueries() []*logical.Query {
	q1 := logical.NewBlock().Scan("t1", "a").Scan("t2", "b").
		Cmp("a.v", expr.LT, 40).
		Join("a.fk", "b.id").
		GroupBy("a.v").Sum("b.v").Query("q1")
	q2 := logical.NewBlock().Scan("t1", "a").Scan("t2", "b").Scan("t3", "c").
		Cmp("a.v", expr.LT, 40).
		Join("a.fk", "b.id").Join("b.fk", "c.id").Query("q2")
	return []*logical.Query{q1, q2}
}

func TestOrderSatisfies(t *testing.T) {
	x := expr.Col{Alias: "g1", Column: "a"}
	y := expr.Col{Alias: "g1", Column: "b"}
	cases := []struct {
		have, want Order
		ok         bool
	}{
		{nil, nil, true},
		{Order{x}, nil, true},
		{nil, Order{x}, false},
		{Order{x, y}, Order{x}, true},
		{Order{x}, Order{x, y}, false},
		{Order{y, x}, Order{x}, false},
	}
	for _, c := range cases {
		if got := c.have.Satisfies(c.want); got != c.ok {
			t.Errorf("%v.Satisfies(%v) = %v, want %v", c.have.Key(), c.want.Key(), got, c.ok)
		}
	}
	if (Order{x, y}).Key() != "g1.a,g1.b" {
		t.Errorf("Key = %q", (Order{x, y}).Key())
	}
}

func TestBestCostEmptyEqualsUseCost(t *testing.T) {
	s := buildSearcher(t, sharedPairQueries()...)
	if bc, buc := s.BestCost(NodeSet{}), s.BestUseCost(NodeSet{}); bc != buc {
		t.Errorf("bc(∅)=%v != buc(∅)=%v", bc, buc)
	}
}

func TestBestUseCostMonotone(t *testing.T) {
	// buc is monotonically decreasing: materializing more nodes for free
	// can never hurt (Section 2.4).
	s := buildSearcher(t, sharedPairQueries()...)
	sh := s.M.Shareable()
	if len(sh) == 0 {
		t.Skip("no shareable nodes")
	}
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		set := s.NewNodeSet()
		for _, id := range sh {
			if r.Intn(2) == 0 {
				set.Add(id)
			}
		}
		base := s.BestUseCost(set)
		for _, id := range sh {
			if !set.Has(id) {
				bigger := set.With(id)
				if got := s.BestUseCost(bigger); got > base+1e-6 {
					t.Fatalf("buc increased when adding node %d: %v -> %v", id, base, got)
				}
			}
		}
	}
}

func TestBestCostGEBestUseCost(t *testing.T) {
	// bc(S) = buc(S) + cost of computing and writing S ≥ buc(S).
	s := buildSearcher(t, sharedPairQueries()...)
	sh := s.M.Shareable()
	r := rand.New(rand.NewSource(6))
	for trial := 0; trial < 30; trial++ {
		set := s.NewNodeSet()
		for _, id := range sh {
			if r.Intn(2) == 0 {
				set.Add(id)
			}
		}
		if bc, buc := s.BestCost(set), s.BestUseCost(set); bc < buc-1e-6 {
			t.Fatalf("bc(S)=%v < buc(S)=%v for S=%v", bc, buc, set)
		}
	}
}

func TestPlanTotalMatchesBestCost(t *testing.T) {
	s := buildSearcher(t, sharedPairQueries()...)
	sh := s.M.Shareable()
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		set := s.NewNodeSet()
		for _, id := range sh {
			if r.Intn(3) == 0 {
				set.Add(id)
			}
		}
		want := s.BestCost(set)
		plan := s.BestPlan(set)
		if diff := plan.Total - want; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("plan total %v != bestCost %v for S=%v", plan.Total, want, set)
		}
		if len(plan.Steps) != set.Len() {
			t.Fatalf("plan has %d steps for |S|=%d", len(plan.Steps), set.Len())
		}
	}
}

func TestIncrementalCacheMatchesCold(t *testing.T) {
	// The Section 5.1 incremental cache must be a pure optimization.
	sWarm := buildSearcher(t, sharedPairQueries()...)
	sCold := buildSearcher(t, sharedPairQueries()...)
	sCold.Incremental = false
	sh := sWarm.M.Shareable()
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 40; trial++ {
		set := sWarm.NewNodeSet()
		for _, id := range sh {
			if r.Intn(2) == 0 {
				set.Add(id)
			}
		}
		w, c := sWarm.BestCost(set), sCold.BestCost(set)
		if w != c {
			t.Fatalf("incremental %v != cold %v for S=%v", w, c, set)
		}
	}
	if sWarm.CacheHits == 0 {
		t.Error("incremental cache never hit across 40 calls")
	}
}

func TestMaterializingSharedNodeHelps(t *testing.T) {
	s := buildSearcher(t, sharedPairQueries()...)
	base := s.BestCost(NodeSet{})
	best := base
	for _, id := range s.M.Shareable() {
		if c := s.BestCost(s.NewNodeSet(id)); c < best {
			best = c
		}
	}
	if best >= base {
		t.Errorf("no single shared node helps: base=%v best=%v", base, best)
	}
}

func TestSortEnforcerUsed(t *testing.T) {
	// Requesting a plan for a query whose aggregation needs an order on a
	// non-indexed column must still succeed (enforcer path).
	q := logical.NewBlock().Scan("t1", "a").Scan("t2", "b").
		Join("a.fk", "b.id").
		GroupBy("a.v").Count().Query("q")
	s := buildSearcher(t, q)
	plan := s.BestPlan(NodeSet{})
	found := false
	var walk func(n *PlanNode)
	walk = func(n *PlanNode) {
		if n.Op == OpNameSort {
			found = true
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, qp := range plan.Queries {
		walk(qp)
	}
	if !found {
		t.Error("expected a sort enforcer somewhere in the plan")
	}
}

func TestClusteredIndexAvoidsSortOnPK(t *testing.T) {
	// Merge join on the clustered key should not need a sort on the base
	// scan side.
	q := logical.NewBlock().Scan("t1", "a").Scan("t2", "b").
		Join("a.id", "b.id").Query("pkjoin")
	s := buildSearcher(t, q)
	plan := s.BestPlan(NodeSet{})
	var hasMerge, sortOverScan bool
	var walk func(n *PlanNode)
	walk = func(n *PlanNode) {
		if n.Op == OpNameMergeJoin {
			hasMerge = true
			for _, c := range n.Children {
				if c.Op == OpNameSort && c.Children[0].Op == OpNameScan {
					sortOverScan = true
				}
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(plan.Queries[0])
	if hasMerge && sortOverScan {
		t.Error("merge join on clustered PKs should use scan order, not sort")
	}
}

func TestMatScanAppearsInSharedPlan(t *testing.T) {
	s := buildSearcher(t, sharedPairQueries()...)
	sh := s.M.Shareable()
	// Pick the best single node and check the plan reads it at least twice.
	bestID, bestCost := memo.GroupID(-1), s.BestCost(NodeSet{})
	for _, id := range sh {
		if c := s.BestCost(s.NewNodeSet(id)); c < bestCost {
			bestCost, bestID = c, id
		}
	}
	if bestID < 0 {
		t.Skip("no beneficial node in this instance")
	}
	plan := s.BestPlan(s.NewNodeSet(bestID))
	uses := 0
	var walk func(n *PlanNode)
	walk = func(n *PlanNode) {
		if n.Op == OpNameMatScan && n.Group == bestID {
			uses++
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, qp := range plan.Queries {
		walk(qp)
	}
	for _, st := range plan.Steps {
		walk(st.Plan)
	}
	if uses < 2 {
		t.Errorf("materialized node read %d times; expected ≥ 2 for it to be beneficial", uses)
	}
}

func TestNodeSetOps(t *testing.T) {
	srch := buildSearcher(t, sharedPairQueries()...)
	sh := srch.M.Shareable()
	if len(sh) < 3 {
		t.Skip("need at least 3 shareable nodes")
	}
	s := srch.NewNodeSet(sh[0])
	w := s.With(sh[1])
	if !w.Has(sh[0]) || !w.Has(sh[1]) || w.Len() != 2 {
		t.Errorf("With: %v", w.Groups())
	}
	if s.Len() != 1 {
		t.Error("With mutated the receiver")
	}
	c := s.Clone()
	c.Add(sh[2])
	if s.Has(sh[2]) {
		t.Error("Clone shares storage")
	}
	if got := w.Groups(); len(got) != 2 || got[0] != sh[0] || got[1] != sh[1] {
		t.Errorf("Groups: %v", got)
	}
	var empty NodeSet
	if empty.Len() != 0 || empty.Has(sh[0]) || empty.Groups() != nil {
		t.Error("zero NodeSet is not the empty set")
	}
	shared := map[memo.GroupID]bool{}
	for _, id := range sh {
		shared[id] = true
	}
	nonShareable := memo.GroupID(-1)
	for i := 0; i < srch.M.NumGroups(); i++ {
		if !shared[memo.GroupID(i)] {
			nonShareable = memo.GroupID(i)
			break
		}
	}
	if nonShareable < 0 {
		t.Skip("every group is shareable on this instance")
	}
	defer func() {
		if recover() == nil {
			t.Error("Add of non-shareable group did not panic")
		}
	}()
	srch.NewNodeSet().Add(nonShareable)
}

func TestDeterministicCosts(t *testing.T) {
	// Two independently built searchers must agree exactly.
	a := buildSearcher(t, sharedPairQueries()...)
	b := buildSearcher(t, sharedPairQueries()...)
	sh := a.M.Shareable()
	set := a.NewNodeSet()
	for i, id := range sh {
		if i%2 == 0 {
			set.Add(id)
		}
	}
	if x, y := a.BestCost(set), b.BestCost(set); x != y {
		t.Errorf("nondeterministic costs: %v vs %v", x, y)
	}
}
