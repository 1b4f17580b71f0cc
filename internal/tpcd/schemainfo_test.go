package tpcd

import "testing"

// TestJoinEdgesMatchCatalog: every edge of the exported foreign-key graph
// must reference existing tables and columns of the TPCD catalog.
func TestJoinEdgesMatchCatalog(t *testing.T) {
	cat := Catalog(1)
	for _, e := range JoinEdges() {
		lt, ok := cat.Table(e.Left)
		if !ok {
			t.Fatalf("edge %s–%s: unknown table %s", e.Left, e.Right, e.Left)
		}
		rt, ok := cat.Table(e.Right)
		if !ok {
			t.Fatalf("edge %s–%s: unknown table %s", e.Left, e.Right, e.Right)
		}
		if len(e.Cols) == 0 {
			t.Errorf("edge %s–%s has no column pairs", e.Left, e.Right)
		}
		for _, cols := range e.Cols {
			if _, ok := lt.Column(cols[0]); !ok {
				t.Errorf("edge %s–%s: %s has no column %s", e.Left, e.Right, e.Left, cols[0])
			}
			if _, ok := rt.Column(cols[1]); !ok {
				t.Errorf("edge %s–%s: %s has no column %s", e.Left, e.Right, e.Right, cols[1])
			}
		}
		for _, pair := range [][2]string{{e.Left, e.Right}, {e.Right, e.Left}} {
			if _, ok := EdgeBetween(pair[0], pair[1]); !ok {
				t.Errorf("EdgeBetween(%s, %s) lost the edge", pair[0], pair[1])
			}
		}
	}
	if _, ok := EdgeBetween("region", "lineitem"); ok {
		t.Error("EdgeBetween invented a region–lineitem edge")
	}
}

// TestEdgeBetweenAllocFree: EdgeBetween scans a table built once, so the
// generator's per-join lookup allocates nothing, and a caller writing into a
// JoinEdges result changes no later EdgeBetween answer.
func TestEdgeBetweenAllocFree(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { EdgeBetween("partsupp", "lineitem") }); n != 0 {
		t.Fatalf("EdgeBetween made %v allocations, want 0", n)
	}
	edges := JoinEdges()
	for i := range edges {
		edges[i].Left = "mutated"
		for j := range edges[i].Cols {
			edges[i].Cols[j] = [2]string{"x", "y"}
		}
	}
	e, ok := EdgeBetween("lineitem", "partsupp")
	if !ok || e.Left != "lineitem" || len(e.Cols) != 2 || e.Cols[0] != [2]string{"partkey", "partkey"} || e.Cols[1] != [2]string{"suppkey", "suppkey"} {
		t.Fatalf("EdgeBetween after a JoinEdges result was mutated: %+v, %v", e, ok)
	}
}

// TestFilterColumnsMatchCatalog: filter columns must exist and their
// advertised constant ranges must lie within the catalog statistics, so
// generated predicates are never trivially empty or always-true.
func TestFilterColumnsMatchCatalog(t *testing.T) {
	cat := Catalog(1)
	for table, fcs := range FilterColumns() {
		tab, ok := cat.Table(table)
		if !ok {
			t.Fatalf("filter columns for unknown table %s", table)
		}
		if len(fcs) == 0 {
			t.Errorf("table %s has an empty filter-column list", table)
		}
		for _, fc := range fcs {
			col, ok := tab.Column(fc.Column)
			if !ok {
				t.Errorf("table %s has no column %s", table, fc.Column)
				continue
			}
			if fc.Min > fc.Max {
				t.Errorf("%s.%s: min %v > max %v", table, fc.Column, fc.Min, fc.Max)
			}
			if fc.Min < col.Min || fc.Max > col.Max {
				t.Errorf("%s.%s: filter range [%v,%v] outside catalog range [%v,%v]",
					table, fc.Column, fc.Min, fc.Max, col.Min, col.Max)
			}
		}
	}
}
