package memo_test

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/memo"
	"repro/internal/parser"
	"repro/internal/physical"
	"repro/internal/tpcd"
	"repro/internal/volcano"
	"repro/internal/workload"
)

type digestPin struct{ memo, searcher uint64 }

// pinnedDigests reads the values TestBuildDigestPinned checks fresh builds
// against.
func pinnedDigests(t testing.TB) map[string]digestPin {
	f, err := os.Open(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pins := map[string]digestPin{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		var name string
		var p digestPin
		if _, err := fmt.Sscanf(line, "%s %x %x", &name, &p.memo, &p.searcher); err != nil {
			t.Fatalf("%s: bad line %q: %v", digestFile, line, err)
		}
		pins[name] = p
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return pins
}

func fingerprintable(b *logical.Batch) bool {
	_, ok := memo.BatchKey(b)
	return ok
}

// A hit is indistinguishable from a miss: the memo a BuildCache hands back
// after a full run — search, plan extraction, cost-cache publish — used the
// first one carries the pinned DAG and compiled search space of a fresh
// build, on every fixture; and it is a hit exactly when every query of the
// batch has a fingerprint.
func TestBuildCacheHitIsTheBuild(t *testing.T) {
	pins := pinnedDigests(t)
	for _, fx := range fixtures(t) {
		want, ok := pins[fx.name]
		if !ok {
			t.Fatalf("%s: no pinned digest", fx.name)
		}
		bc, sc := memo.NewBuildCache(), physical.NewSharedCache()
		first, err := volcano.NewOptimizer(fx.cat, cost.Default(), fx.batch, memo.WithBuildCache(bc))
		if err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		first.Searcher.AttachSharedCache(sc)
		res := core.RunWith(context.Background(), first, core.MarginalGreedy, core.Config{})
		plan := first.Plan(res.MatSet())
		first.Searcher.PublishCache()

		m, err := memo.Build(fx.cat, cost.Default(), fx.batch, memo.WithBuildCache(bc))
		if err != nil {
			t.Fatalf("%s: second Build: %v", fx.name, err)
		}
		hits, misses, nodes := bc.Compiled()
		if fingerprintable(fx.batch) {
			if m != first.Memo || hits != 1 || misses != 1 || nodes != m.NumExprs() {
				t.Fatalf("%s: second Build: same memo %t, %d hits / %d misses, %d nodes held of %d",
					fx.name, m == first.Memo, hits, misses, nodes, m.NumExprs())
			}
		} else if m == first.Memo || hits != 0 || misses != 2 || nodes != 0 {
			t.Fatalf("%s: a batch without a fingerprint was held: same memo %t, %d hits / %d misses, %d nodes",
				fx.name, m == first.Memo, hits, misses, nodes)
		}
		if got := memoDigest(m); got != want.memo {
			t.Errorf("%s: memo digest after a run %016x, pinned %016x", fx.name, got, want.memo)
		}
		s := physical.NewSearcher(m)
		if got := s.Fingerprint(); runtime.GOARCH == "amd64" && got != want.searcher {
			t.Errorf("%s: searcher fingerprint after a run %016x, pinned %016x", fx.name, got, want.searcher)
		}
		// And the reused objects give the run's own answer again.
		second := &volcano.Optimizer{Memo: m, Searcher: s}
		s.AttachSharedCache(sc)
		again := core.RunWith(context.Background(), second, core.MarginalGreedy, core.Config{})
		if again.Cost != res.Cost || again.VolcanoCost != res.VolcanoCost || again.Telemetry.Work() != res.Telemetry.Work() {
			t.Errorf("%s: rerun on the held memo: cost %v / %v work %+v, first run %v / %v %+v", fx.name,
				again.Cost, again.VolcanoCost, again.Telemetry.Work(), res.Cost, res.VolcanoCost, res.Telemetry.Work())
		}
		if got := second.Plan(again.MatSet()); got.String() != plan.String() {
			t.Errorf("%s: plan extracted from the held memo differs from the first run's", fx.name)
		}
	}
}

// Everything Build reads is in the key: a renamed query, a reordered batch
// and a rule ablation each build their own memo, and each then repeats.
func TestBuildCacheKeyCoversTheBuild(t *testing.T) {
	cat, model := tpcd.Catalog(1), cost.Default()
	base := workload.MustGenerate(workload.DefaultSpec(8, 0.5))
	renamed := &logical.Batch{Queries: append([]*logical.Query(nil), base.Queries...)}
	renamed.Queries[3] = &logical.Query{Name: base.Queries[3].Name + "'", Root: base.Queries[3].Root}
	reordered := &logical.Batch{Queries: append([]*logical.Query(nil), base.Queries...)}
	reordered.Queries[0], reordered.Queries[5] = reordered.Queries[5], reordered.Queries[0]

	bc := memo.NewBuildCache()
	with := func(opts ...memo.Option) []memo.Option { return append(opts, memo.WithBuildCache(bc)) }
	steps := []struct {
		name  string
		batch *logical.Batch
		opts  []memo.Option
	}{
		{"base", base, with()},
		{"renamed query", renamed, with()},
		{"reordered batch", reordered, with()},
		{"without select subsumption", base, with(memo.WithoutSelectSubsumption())},
		{"without aggregate subsumption", base, with(memo.WithoutAggSubsumption())},
	}
	built := map[*memo.Memo]string{}
	for i, st := range steps {
		m, err := memo.Build(cat, model, st.batch, st.opts...)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if prev, dup := built[m]; dup {
			t.Fatalf("%s was answered with the memo of %s", st.name, prev)
		}
		built[m] = st.name
		if hits, misses, _ := bc.Compiled(); hits != int64(i) || misses != int64(i+1) {
			t.Fatalf("%s: %d hits / %d misses, want %d / %d", st.name, hits, misses, i, i+1)
		}
		fresh, err := memo.Build(cat, model, st.batch, st.opts[:len(st.opts)-1]...)
		if err != nil {
			t.Fatal(err)
		}
		if memoDigest(m) != memoDigest(fresh) {
			t.Fatalf("%s: cached build differs from a build without a cache", st.name)
		}
		if m.QueryNames[3] != st.batch.Queries[3].Name {
			t.Fatalf("%s: memo names query 3 %q, batch says %q", st.name, m.QueryNames[3], st.batch.Queries[3].Name)
		}
		again, err := memo.Build(cat, model, st.batch, st.opts...)
		if err != nil {
			t.Fatal(err)
		}
		if again != m {
			t.Fatalf("%s: the repeat was built again", st.name)
		}
	}
}

// A BuildCache belongs to one catalog. Shared across two by mistake it must
// rebuild, not hand one catalog's DAG to the other: both scale factors get
// the costs a cache-less build gives them, whichever came first.
func TestBuildCacheChecksCatalog(t *testing.T) {
	batch := tpcd.BQ(3)
	bc := memo.NewBuildCache()
	cats := []float64{1, 100, 1, 100}
	var costs []float64
	for _, sf := range cats {
		cat := tpcd.Catalog(sf)
		m, err := memo.Build(cat, cost.Default(), batch, memo.WithBuildCache(bc))
		if err != nil {
			t.Fatal(err)
		}
		if m.Cat != cat {
			t.Fatalf("sf %g: got a memo built against another catalog", sf)
		}
		plain, err := memo.Build(cat, cost.Default(), batch)
		if err != nil {
			t.Fatal(err)
		}
		got := physical.NewSearcher(m).BestCost(physical.NodeSet{})
		if want := physical.NewSearcher(plain).BestCost(physical.NodeSet{}); got != want {
			t.Fatalf("sf %g: bc(∅) = %v through the shared cache, %v without", sf, got, want)
		}
		costs = append(costs, got)
	}
	if costs[0] == costs[1] || costs[0] != costs[2] || costs[1] != costs[3] {
		t.Fatalf("costs by scale factor %v: want two distinct values, each repeating", costs)
	}
	if hits, misses, _ := bc.Compiled(); hits != 0 || misses != 4 {
		t.Fatalf("%d hits / %d misses across alternating catalogs, want 0 / 4", hits, misses)
	}
	// Same catalog value, different cost model: also a rebuild.
	cat := tpcd.Catalog(1)
	cheap := cost.Default()
	cheap.SeekMs /= 2
	a, _ := memo.Build(cat, cost.Default(), batch, memo.WithBuildCache(bc))
	b, _ := memo.Build(cat, cheap, batch, memo.WithBuildCache(bc))
	if a == b || b.Model != cheap {
		t.Fatal("a memo built under another cost model was handed back")
	}
}

// Held memos are bounded in operator nodes, least recently used out, and
// Drop releases them all.
func TestBuildCacheBound(t *testing.T) {
	cat, model := tpcd.Catalog(1), cost.Default()
	bc := memo.NewBuildCache()
	batchOf := func(k int) *logical.Batch {
		spec := workload.DefaultSpec(32, 0.25)
		spec.Seed = int64(100 + k)
		return workload.MustGenerate(spec)
	}
	build := func(k int) *memo.Memo {
		m, err := memo.Build(cat, model, batchOf(k), memo.WithBuildCache(bc))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	first := build(0)
	total, n := first.NumExprs(), 1
	for ; total <= memo.HeldNodeCap; n++ {
		total += build(n).NumExprs()
		if got := build(0); got != first { // keep batch 0 the most recently used
			t.Fatalf("batch 0 was dropped after %d batches (%d nodes, cap %d)", n+1, total, memo.HeldNodeCap)
		}
	}
	_, _, held := bc.Compiled()
	if held > memo.HeldNodeCap || held < memo.HeldNodeCap/2 {
		t.Fatalf("holding %d nodes after building %d, cap %d", held, total, memo.HeldNodeCap)
	}
	// Batch 1 was the least recently used when the bound was crossed.
	hits, _, _ := bc.Compiled()
	build(1)
	if after, _, _ := bc.Compiled(); after != hits {
		t.Fatal("the least recently used batch survived the bound")
	}
	bc.Drop()
	if _, _, held := bc.Compiled(); held != 0 {
		t.Fatalf("Drop left %d nodes", held)
	}
	if build(0) == first {
		t.Fatal("Drop left a memo behind")
	}
}

// star parses oversizeFrom(n): one block joining n aliases to the first.
func star(t testing.TB, n int) *logical.Batch {
	b, err := parser.ParseBatch(oversizeFrom(n))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// Build enumerates 2^n subsets of a block's n sources: the count is bounded
// on the way in, with and without a cache, at the top level and nested.
func TestBlockSourceCap(t *testing.T) {
	cat, model := tpcd.Catalog(1), cost.Default()
	bc := memo.NewBuildCache()
	for _, opts := range [][]memo.Option{nil, {memo.WithBuildCache(bc)}} {
		if _, err := memo.Build(cat, model, star(t, logical.MaxBlockSources), opts...); err != nil {
			t.Fatalf("a block of %d sources was rejected: %v", logical.MaxBlockSources, err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := memo.Build(cat, model, star(t, 30), opts...)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "sources") {
			t.Fatalf("a block of 30 sources: err = %v", err)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d > 1<<20 {
			t.Fatalf("rejecting a block of 30 sources allocated %d bytes", d)
		}
		if _, err := memo.Build(cat, model, star(t, logical.MaxBlockSources+1), opts...); err == nil {
			t.Fatalf("a block of %d sources was accepted", logical.MaxBlockSources+1)
		}
		if _, err := memo.Build(cat, model, star(t, 70), opts...); err == nil {
			t.Fatal("a block of 70 sources was accepted")
		}
	}
	nested := &logical.Batch{Queries: []*logical.Query{{Name: "nested", Root: &logical.Block{
		Sources: []logical.Source{
			{Alias: "d", Sub: star(t, logical.MaxBlockSources+1).Queries[0].Root},
			{Alias: "c", Table: "customer"},
		},
		Joins: []expr.EqJoin{{
			Left:  expr.Col{Alias: "d", Column: "custkey"},
			Right: expr.Col{Alias: "c", Column: "custkey"},
		}},
	}}}}
	if _, err := memo.Build(cat, model, nested); err == nil {
		t.Fatal("an oversize nested block was accepted")
	}
}
