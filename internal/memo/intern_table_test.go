package memo_test

import (
	"fmt"
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

// equalMemos asserts two memos are structurally identical: same groups in
// the same id order (signature, flags, properties, expression keys,
// consumer sets) and the same query roots.
func equalMemos(t *testing.T, a, b *memo.Memo) {
	t.Helper()
	if a.NumGroups() != b.NumGroups() || a.NumExprs() != b.NumExprs() {
		t.Fatalf("sizes differ: %d/%d vs %d/%d", a.NumGroups(), a.NumExprs(), b.NumGroups(), b.NumExprs())
	}
	for i := 0; i < a.NumGroups(); i++ {
		ga, gb := a.Group(memo.GroupID(i)), b.Group(memo.GroupID(i))
		if ga.Sig != gb.Sig {
			t.Fatalf("group %d sig %q vs %q", i, ga.Sig, gb.Sig)
		}
		if ga.Leaf != gb.Leaf || ga.BasePred != gb.BasePred {
			t.Fatalf("group %d flags differ", i)
		}
		if ga.Props.Rows != gb.Props.Rows || ga.Props.Width != gb.Props.Width {
			t.Fatalf("group %d props differ: %v/%d vs %v/%d", i, ga.Props.Rows, ga.Props.Width, gb.Props.Rows, gb.Props.Width)
		}
		if len(ga.Props.Cols) != len(gb.Props.Cols) {
			t.Fatalf("group %d column stats differ", i)
		}
		for k, v := range ga.Props.Cols {
			if gb.Props.Cols[k] != v {
				t.Fatalf("group %d column %v stats differ", i, k)
			}
		}
		if len(ga.Exprs) != len(gb.Exprs) {
			t.Fatalf("group %d expr count %d vs %d", i, len(ga.Exprs), len(gb.Exprs))
		}
		for j := range ga.Exprs {
			if memo.ExprKey(ga.Exprs[j]) != memo.ExprKey(gb.Exprs[j]) {
				t.Fatalf("group %d expr %d differs:\n  %s\n  %s", i, j, memo.ExprKey(ga.Exprs[j]), memo.ExprKey(gb.Exprs[j]))
			}
		}
		if ga.Consumers != gb.Consumers {
			t.Fatalf("group %d consumers %v vs %v", i, ga.Consumers, gb.Consumers)
		}
	}
	if len(a.QueryRoots) != len(b.QueryRoots) {
		t.Fatalf("root count differs")
	}
	for i := range a.QueryRoots {
		if a.QueryRoots[i] != b.QueryRoots[i] || a.QueryNames[i] != b.QueryNames[i] {
			t.Fatalf("root %d differs: %d %q vs %d %q", i, a.QueryRoots[i], a.QueryNames[i], b.QueryRoots[i], b.QueryNames[i])
		}
	}
}

type internCase struct {
	name  string
	cat   *catalog.Catalog
	batch *logical.Batch
	// held says whether a cache keeps the batch's memo: every query has a
	// fingerprint (no derived source).
	held bool
}

func internCases(t *testing.T) []internCase {
	var cases []internCase

	// BQ1–6 are single-block; the stand-alone Q2/Q2-D/Q11/Q15 bring the
	// derived sources.
	tp := tpcd.Catalog(1)
	for i := 1; i <= 6; i++ {
		cases = append(cases, internCase{name: fmt.Sprintf("BQ%d", i), cat: tp, batch: tpcd.BQ(i), held: true})
	}
	for _, sa := range tpcd.StandAlone() {
		cases = append(cases, internCase{name: sa.Name, cat: tp, batch: sa.Batch}) // derived sources: never held
	}

	// Self-joins exercise the per-block occurrence ordinals in leaf
	// signatures; the duplicate and the alias-renamed copy land in the
	// same groups.
	mk := func(alias1, alias2 string) *logical.Query {
		return logical.NewBlock().Scan("t1", alias1).Scan("t1", alias2).Scan("t2", "p").
			Cmp(alias1+".v", expr.LT, 40).
			Join(alias1+".fk", alias2+".id").Join(alias2+".fk", "p.id").
			GroupBy(alias1 + ".v").Sum("p.v").Query("q")
	}
	dup := &logical.Batch{}
	dup.Add(mk("a", "b"))
	dup.Add(mk("a", "b"))
	dup.Add(mk("x", "y"))
	cases = append(cases, internCase{name: "selfjoin-dup-rename", cat: memo.TestCatalog(), batch: dup, held: true})

	// A derived source over a plain block: not fingerprintable.
	inner := logical.NewBlock().Scan("t1", "a").Scan("t2", "b").
		Join("a.fk", "b.id").
		GroupBy("a.v").Sum("b.v")
	derived := &logical.Batch{}
	derived.Add(&logical.Query{Name: "outer", Root: &logical.Block{
		Sources: []logical.Source{
			{Alias: "d", Sub: inner.Build()},
			{Alias: "t", Table: "t3"},
		},
		Joins: []expr.EqJoin{{
			Left:  expr.Col{Alias: "d", Column: "v"},
			Right: expr.Col{Alias: "t", Column: "v"},
		}},
	}})
	cases = append(cases, internCase{name: "derived", cat: memo.TestCatalog(), batch: derived})

	for _, shape := range []workload.Shape{workload.Star, workload.Chain, workload.Snowflake} {
		for _, fan := range []int{2, 4, workload.MaxFanOut(shape)} {
			for _, sharing := range []float64{0.25, 0.75} {
				spec := workload.DefaultSpec(12, sharing)
				spec.Shape = shape
				spec.FanOut = fan
				spec.Seed = int64(17 + int(shape)*100 + fan)
				batch, err := workload.Generate(spec)
				if err != nil {
					t.Fatalf("Generate: %v", err)
				}
				cases = append(cases, internCase{
					name: fmt.Sprintf("%s/fan%d/s%.2f", shape, fan, sharing), cat: tp, batch: batch, held: true,
				})
			}
		}
	}
	return cases
}

// A build is the same DAG whether no cache, a cold cache or a warm cache
// is attached — same memo, same compiled search space — and the cache's
// counters follow the batch: a build counts the batch's queries as misses,
// a held memo handed back counts them as hits, and a batch with a derived
// source is never held.
func TestInternedBuild(t *testing.T) {
	for _, tc := range internCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			if _, ok := memo.BatchKey(tc.batch); !ok && tc.held {
				t.Fatal("case is pinned as held, a query has no fingerprint")
			}
			n := int64(len(tc.batch.Queries))
			plain, err := memo.Build(tc.cat, cost.Default(), tc.batch)
			if err != nil {
				t.Fatalf("Build without cache: %v", err)
			}
			fp := physical.NewSearcher(plain).Fingerprint()
			cache := memo.NewBuildCache()
			want := [2]int64{0, n}
			for _, state := range []string{"cold", "warm"} {
				m, err := memo.Build(tc.cat, cost.Default(), tc.batch, memo.WithBuildCache(cache))
				if err != nil {
					t.Fatalf("%s Build: %v", state, err)
				}
				equalMemos(t, plain, m)
				if got := physical.NewSearcher(m).Fingerprint(); got != fp {
					t.Fatalf("%s cache: searcher fingerprint %x, want %x", state, got, fp)
				}
				if hits, misses := cache.Stats(); [2]int64{hits, misses} != want {
					t.Fatalf("%s cache: hits=%d misses=%d, want %v", state, hits, misses, want)
				}
				if tc.held {
					want[0] += n
				} else {
					want[1] += n
				}
			}
		})
	}
}
