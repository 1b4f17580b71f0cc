package memo_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/logical"
	"repro/internal/memo"
	"repro/internal/parser"
	"repro/internal/tpcd"
)

// oversizeFrom is a self-join of n aliases of one table on its key.
func oversizeFrom(n int) string {
	var from, where []string
	for i := 0; i < n; i++ {
		from = append(from, fmt.Sprintf("orders o%d", i))
		if i > 0 {
			where = append(where, fmt.Sprintf("o0.orderkey = o%d.orderkey", i))
		}
	}
	return "SELECT * FROM " + strings.Join(from, ", ") + " WHERE " + strings.Join(where, " AND ")
}

// FuzzBuildInvariants states the construction's invariants on whatever SQL
// parses and builds: no group holds an operator twice (there is no dedup
// table to catch one), building is deterministic, a batch listed twice
// holds exactly the operators of the batch listed once, and two builds
// through one BuildCache — the second answered with the first's memo when
// every query has a fingerprint — are the build without a cache. Seeds are
// the statements of internal/parser's tests and the root repro_test.go, and
// a FROM list past logical.MaxBlockSources, which must be refused before
// its 2^n subsets are enumerated.
func FuzzBuildInvariants(f *testing.F) {
	for _, sql := range []string{
		`SELECT * FROM orders o, lineitem l WHERE o.orderkey = l.orderkey AND o.orderdate < 1100`,
		`SELECT o.orderdate, SUM(l.extendedprice), COUNT(*) FROM orders o, lineitem l
			WHERE o.orderkey = l.orderkey GROUP BY o.orderdate`,
		`SELECT o.orderdate, SUM(o.totalprice) FROM orders o`,
		`SELECT ps.partkey, MIN(ps.supplycost), MAX(ps.availqty) FROM partsupp ps GROUP BY ps.partkey`,
		`SELECT * FROM orders o, lineitem l WHERE o.orderkey = l.orderkey;
			-- a comment between statements
			SELECT * FROM orders o, customer c WHERE o.custkey = c.custkey;`,
		`SELECT * FROM orders o WHERE o.orderdate >= 5`,
		`SELECT * FROM orders WHERE orders.orderdate < 5`,
		`SELECT o.orderdate, SUM(l.extendedprice) FROM orders o, lineitem l
			WHERE o.orderkey = l.orderkey AND o.orderdate < 1100 GROUP BY o.orderdate;
			SELECT o.orderdate, SUM(l.extendedprice) FROM orders o, lineitem l
			WHERE o.orderkey = l.orderkey AND o.orderdate < 1400 GROUP BY o.orderdate;`,
		// The same join with its sources in opposite orders, and a
		// two-condition join whose conditions swap places.
		`SELECT * FROM customer c, orders o, lineitem l WHERE c.custkey = o.custkey AND o.orderkey = l.orderkey;
			SELECT * FROM lineitem l, orders o, customer c WHERE o.orderkey = l.orderkey AND c.custkey = o.custkey;`,
		`SELECT * FROM lineitem l, partsupp ps WHERE l.partkey = ps.partkey AND l.suppkey = ps.suppkey;
			SELECT * FROM partsupp ps, lineitem l WHERE l.suppkey = ps.suppkey AND l.partkey = ps.partkey;`,
		oversizeFrom(30),
	} {
		f.Add(sql)
	}
	cat := tpcd.Catalog(1)
	f.Fuzz(func(t *testing.T, sql string) {
		batch, err := parser.ParseBatch(sql)
		if err != nil || len(batch.Queries) > 8 {
			return
		}
		m, err := memo.Build(cat, cost.Default(), batch)
		if err != nil {
			return
		}
		checkNoDuplicateExprs(t, m)
		again, err := memo.Build(cat, cost.Default(), batch)
		if err != nil {
			t.Fatalf("second Build of a batch that built: %v", err)
		}
		if a, b := memoDigest(m), memoDigest(again); a != b {
			t.Fatalf("two builds of one batch digest %016x and %016x", a, b)
		}
		cache := memo.NewBuildCache()
		for _, state := range []string{"cold", "warm"} {
			cached, err := memo.Build(cat, cost.Default(), batch, memo.WithBuildCache(cache))
			if err != nil {
				t.Fatalf("Build through a %s cache: %v", state, err)
			}
			if a, b := memoDigest(m), memoDigest(cached); a != b {
				t.Fatalf("build through a %s cache digests %016x, without one %016x", state, b, a)
			}
		}
		twice := &logical.Batch{Queries: slices.Concat(batch.Queries, batch.Queries)}
		m2, err := memo.Build(cat, cost.Default(), twice)
		if err != nil {
			t.Fatalf("Build of the batch listed twice: %v", err)
		}
		checkNoDuplicateExprs(t, m2)
		if m2.NumGroups() != m.NumGroups() || m2.NumExprs() != m.NumExprs() {
			t.Fatalf("batch listed twice: %d groups / %d operators, once: %d / %d",
				m2.NumGroups(), m2.NumExprs(), m.NumGroups(), m.NumExprs())
		}
	})
}
