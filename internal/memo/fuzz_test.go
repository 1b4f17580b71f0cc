package memo_test

import (
	"slices"
	"testing"

	"repro/internal/cost"
	"repro/internal/logical"
	"repro/internal/memo"
	"repro/internal/parser"
	"repro/internal/tpcd"
)

// FuzzBuildInvariants states the construction's invariants on whatever SQL
// parses and builds: no group holds an operator twice (there is no dedup
// table to catch one), building is deterministic, and a batch listed twice
// holds exactly the operators of the batch listed once. Seeds are the
// statements of internal/parser's tests and the root repro_test.go.
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
	} {
		f.Add(sql)
	}
	cat := tpcd.Catalog(1)
	f.Fuzz(func(t *testing.T, sql string) {
		batch, err := parser.ParseBatch(sql)
		if err != nil || len(batch.Queries) > 8 {
			return
		}
		for _, q := range batch.Queries {
			// Build enumerates 2^sources subsets per block and nothing
			// upstream bounds the count; keep the fuzzer off that cliff.
			if len(q.Root.Sources) > 6 {
				return
			}
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
