package memo_test

import (
	"bufio"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/memo"
	"repro/internal/physical"
	"repro/internal/tpcd"
	"repro/internal/workload"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/build_digests.golden from the current build")

type fixture struct {
	name  string
	cat   *catalog.Catalog
	batch *logical.Batch
}

// oppositeOrders is one three-way join written twice with its sources (and
// join conditions) listed in opposite orders: the second query finds every
// join group already there and contributes only the commuted child pairs.
func oppositeOrders() *logical.Batch {
	b := &logical.Batch{}
	b.Add(logical.NewBlock().Scan("t1", "a").Scan("t2", "b").Scan("t3", "c").
		Cmp("a.v", expr.LT, 40).
		Join("a.fk", "b.id").Join("b.fk", "c.id").Query("fwd"))
	b.Add(logical.NewBlock().Scan("t3", "c").Scan("t2", "b").Scan("t1", "a").
		Cmp("a.v", expr.LT, 40).
		Join("b.fk", "c.id").Join("a.fk", "b.id").Query("rev"))
	return b
}

// derivedTwins joins a base table to two identical derived tables: both
// resolve to one group, so the partitions ({c,d1},{d2}) and ({c,d2},{d1})
// of the three-way join name the same ordered child pair.
func derivedTwins() *logical.Batch {
	inner := func() *logical.Block {
		return logical.NewBlock().Scan("t1", "a").Scan("t2", "b").
			Join("a.fk", "b.id").GroupBy("a.v").Sum("b.v").Build()
	}
	col := func(a, c string) expr.Col { return expr.Col{Alias: a, Column: c} }
	b := &logical.Batch{}
	b.Add(&logical.Query{Name: "twins", Root: &logical.Block{
		Sources: []logical.Source{
			{Alias: "c", Table: "t3"},
			{Alias: "d1", Sub: inner()},
			{Alias: "d2", Sub: inner()},
		},
		Joins: []expr.EqJoin{
			{Left: col("c", "v"), Right: col("d1", "v")},
			{Left: col("c", "v"), Right: col("d2", "v")},
		},
	}})
	return b
}

// fixtures is the input set the build invariants are stated over: the
// paper's batches at both scale factors, the nested stand-alone queries,
// every generator shape across the sharing range, the benchmark's two
// batch sizes, and the two hand-built batches that re-derive an existing
// join group.
func fixtures(t testing.TB) []fixture {
	var out []fixture
	for _, sf := range []float64{1, 100} {
		cat := tpcd.Catalog(sf)
		for i := 1; i <= 6; i++ {
			out = append(out, fixture{fmt.Sprintf("BQ%d/sf%g", i, sf), cat, tpcd.BQ(i)})
		}
	}
	tp := tpcd.Catalog(1)
	for _, sa := range tpcd.StandAlone() {
		out = append(out, fixture{sa.Name, tp, sa.Batch})
	}
	gen := func(name string, spec workload.Spec) {
		b, err := workload.Generate(spec)
		if err != nil {
			t.Fatalf("Generate %s: %v", name, err)
		}
		out = append(out, fixture{name, tp, b})
	}
	for _, shape := range []workload.Shape{workload.Star, workload.Chain, workload.Snowflake, workload.Mixed} {
		for _, sharing := range []float64{0, 0.25, 0.75, 1} {
			for seed := int64(1); seed <= 8; seed++ {
				spec := workload.DefaultSpec(16, sharing)
				spec.Shape, spec.Seed = shape, seed
				gen(fmt.Sprintf("%s/s%g/seed%d", shape, sharing, seed), spec)
			}
		}
	}
	gen("default/32x0.25", workload.DefaultSpec(32, 0.25))
	gen("default/64x0.25", workload.DefaultSpec(64, 0.25))
	out = append(out,
		fixture{"opposite-orders", memo.TestCatalog(), oppositeOrders()},
		fixture{"derived-twins", memo.TestCatalog(), derivedTwins()})
	return out
}

// checkNoDuplicateExprs fails if a group holds two operators with equal
// renderings (kind, children in order, canonical parameters).
func checkNoDuplicateExprs(t testing.TB, m *memo.Memo) {
	t.Helper()
	n := 0
	for _, g := range m.Groups() {
		seen := make(map[string]bool, len(g.Exprs))
		for _, e := range g.Exprs {
			k := memo.ExprKey(e)
			if seen[k] {
				t.Fatalf("group %d (%s) holds operator %s twice", g.ID, g.Sig, k)
			}
			seen[k] = true
		}
		n += len(g.Exprs)
	}
	if n != m.NumExprs() {
		t.Fatalf("NumExprs() = %d, groups hold %d operators", m.NumExprs(), n)
	}
}

// No dedup table backs Build: that each operator is generated once is a
// property of the construction, checked here on every fixture.
func TestNoDuplicateExprs(t *testing.T) {
	for _, fx := range fixtures(t) {
		m, err := memo.Build(fx.cat, cost.Default(), fx.batch)
		if err != nil {
			t.Fatalf("%s: Build: %v", fx.name, err)
		}
		checkNoDuplicateExprs(t, m)
	}
	// The opposite-order query adds no group and exactly the commuted pair
	// of each of the four join operators; the twin partitions collapse to
	// one operator.
	one := &logical.Batch{Queries: oppositeOrders().Queries[:1]}
	m1, err := memo.Build(memo.TestCatalog(), cost.Default(), one)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := memo.Build(memo.TestCatalog(), cost.Default(), oppositeOrders())
	if err != nil {
		t.Fatal(err)
	}
	if m2.NumGroups() != m1.NumGroups() || m2.NumExprs() != m1.NumExprs()+4 {
		t.Errorf("opposite orders: %d groups / %d operators, want %d / %d",
			m2.NumGroups(), m2.NumExprs(), m1.NumGroups(), m1.NumExprs()+4)
	}
	tw, err := memo.Build(memo.TestCatalog(), cost.Default(), derivedTwins())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tw.Group(tw.QueryRoots[0]).Exprs); got != 1 {
		t.Errorf("derived twins: root holds %d operators, want 1", got)
	}
}

// memoDigest is an FNV-1a digest of everything Build decides that is not a
// floating-point estimate: per group the signature, flags, width and
// consumer count capped at two (all that Shareable reads of it), and every
// operator in group order with its parameters in stored order (conjuncts
// and join conditions are hashed as they sit in the node, not re-sorted).
func memoDigest(m *memo.Memo) uint64 {
	h := fnv.New64a()
	str := func(s string) { fmt.Fprintf(h, "%d:%s", len(s), s) }
	num := func(v int) { fmt.Fprintf(h, "%d;", v) }
	col := func(c expr.Col) { str(c.Alias); str(c.Column) }
	num(m.NumGroups())
	num(m.NumExprs())
	for _, g := range m.Groups() {
		num(int(g.ID))
		str(g.Sig)
		num(g.Props.Width)
		fmt.Fprintf(h, "%t%t", g.Leaf, g.BasePred)
		num(g.Consumers.Len())
		num(len(g.Exprs))
		for _, e := range g.Exprs {
			num(int(e.Kind))
			num(int(e.Group))
			num(len(e.Children))
			for _, c := range e.Children {
				num(int(c))
			}
			str(e.Table)
			num(len(e.Pred.Conj))
			for _, c := range e.Pred.Conj {
				col(c.Col)
				num(int(c.Op))
				fmt.Fprintf(h, "%x;", math.Float64bits(c.Val))
			}
			num(len(e.Conds))
			for _, j := range e.Conds {
				col(j.Left)
				col(j.Right)
			}
			if e.Spec != nil {
				num(len(e.Spec.GroupBy))
				for _, c := range e.Spec.GroupBy {
					col(c)
				}
				num(len(e.Spec.Aggs))
				for _, a := range e.Spec.Aggs {
					num(int(a.Func))
					col(a.Col)
				}
			}
		}
	}
	for i, r := range m.QueryRoots {
		num(int(r))
		str(m.QueryNames[i])
	}
	return h.Sum64()
}

const digestFile = "testdata/build_digests.golden"

// TestBuildDigestPinned pins the DAG of every fixture — and, on amd64
// (floating-point contraction differs elsewhere), the compiled search
// space's fingerprint with every cost constant in it — to the values
// recorded before the dedup table, the parent links and the re-derivation
// passes were removed from Build. `go test -run TestBuildDigestPinned
// -update` re-records after a change that is meant to alter the DAG.
func TestBuildDigestPinned(t *testing.T) {
	type pin struct{ memo, searcher uint64 }
	got := map[string]pin{}
	var names []string
	for _, fx := range fixtures(t) {
		m, err := memo.Build(fx.cat, cost.Default(), fx.batch)
		if err != nil {
			t.Fatalf("%s: Build: %v", fx.name, err)
		}
		got[fx.name] = pin{memoDigest(m), physical.NewSearcher(m).Fingerprint()}
		names = append(names, fx.name)
	}
	if *updateDigests {
		if runtime.GOARCH != "amd64" {
			t.Fatalf("-update records searcher fingerprints and must run on amd64, not %s", runtime.GOARCH)
		}
		var sb strings.Builder
		sb.WriteString("# fixture memoDigest Searcher.Fingerprint()(amd64)\n")
		for _, n := range names {
			fmt.Fprintf(&sb, "%s %016x %016x\n", n, got[n].memo, got[n].searcher)
		}
		if err := os.WriteFile(digestFile, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pinned := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		var name string
		var want pin
		if _, err := fmt.Sscanf(line, "%s %x %x", &name, &want.memo, &want.searcher); err != nil {
			t.Fatalf("%s: bad line %q: %v", digestFile, line, err)
		}
		g, ok := got[name]
		if !ok {
			t.Errorf("%s pins %q, which is not a fixture", digestFile, name)
			continue
		}
		pinned++
		if g.memo != want.memo {
			t.Errorf("%s: memo digest %016x, pinned %016x", name, g.memo, want.memo)
		}
		if runtime.GOARCH == "amd64" && g.searcher != want.searcher {
			t.Errorf("%s: searcher fingerprint %016x, pinned %016x", name, g.searcher, want.searcher)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if pinned != len(names) {
		t.Errorf("%s pins %d of %d fixtures", digestFile, pinned, len(names))
	}
}

// TestBuildAllocBudget bounds what one warm build of the benchmark's 32 q
// batch allocates (46,920 objects when every operator was rendered into a
// dedup key and every leaf pair re-fingerprinted; 12,2xx after, validation
// included; 9,6xx since consumer sets hold two context ids and an operator
// holds its children).
func TestBuildAllocBudget(t *testing.T) {
	batch := workload.MustGenerate(workload.DefaultSpec(32, 0.25))
	cat := tpcd.Catalog(1)
	cache := memo.NewBuildCache()
	build := func() {
		cache.Drop() // the memo of the last build goes: every run builds
		if _, err := memo.Build(cat, cost.Default(), batch, memo.WithBuildCache(cache)); err != nil {
			t.Fatal(err)
		}
	}
	const budget = 16000
	if got := testing.AllocsPerRun(5, build); got > budget {
		t.Errorf("memo.Build allocates %.0f objects on DefaultSpec(32, 0.25), budget %d", got, budget)
	}
}

// TestBuildBytesPerOperator bounds what memo.Build allocates on the
// 256-query batch, per operator node of the DAG it returns: the groups and
// operators themselves, their predicates, join conditions and properties,
// and the construction tables. The bound is tight — one byte per pair of
// groups, a table sized by groups², does not fit under it — so per-group
// state that grows with the batch (a consumer set of every context that
// reaches the group) shows here as well.
func TestBuildBytesPerOperator(t *testing.T) {
	batch := workload.MustGenerate(workload.DefaultSpec(256, 0.25))
	cat := tpcd.Catalog(1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := memo.Build(cat, cost.Default(), batch)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	got := after.TotalAlloc - before.TotalAlloc
	ops := uint64(m.NumExprs())
	pairs := uint64(m.NumGroups()) * uint64(m.NumGroups())
	t.Logf("%d groups (%d pairs), %d operators: Build allocated %d B (%.0f B/operator)",
		m.NumGroups(), pairs, ops, got, float64(got)/float64(ops))
	const perOp = 475
	limit := perOp * ops
	if got > limit {
		t.Fatalf("Build allocated %d B for %d operators, want ≤ %d (%d B an operator)", got, ops, limit, perOp)
	}
	if got+pairs <= limit {
		t.Fatalf("the bound is loose: %d B and one byte per pair of groups (%d) still fit under %d", got, pairs, limit)
	}
}
