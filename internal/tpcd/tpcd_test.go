package tpcd

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/logical"
	"repro/internal/volcano"
)

func TestCatalogSizes(t *testing.T) {
	tables := []string{"region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem"}
	gb := func(cat *catalog.Catalog) float64 {
		sum := 0.0
		for _, name := range tables {
			tbl, ok := cat.Table(name)
			if !ok {
				t.Fatalf("no table %s", name)
			}
			sum += tbl.Rows * float64(tbl.RowWidth())
		}
		return sum / (1 << 30)
	}
	if gb := gb(Catalog(1)); gb < 0.7 || gb > 1.5 {
		t.Errorf("SF1 total size = %.2f GB, want ≈ 1 GB", gb)
	}
	if gb100 := gb(Catalog(100)); gb100 < 70 || gb100 > 150 {
		t.Errorf("SF100 total size = %.2f GB, want ≈ 100 GB", gb100)
	}
	for _, name := range tables {
		tbl, _ := Catalog(1).Table(name)
		if _, ok := tbl.ClusteredIndex(); !ok {
			t.Errorf("table %s lacks a clustered index", tbl.Name)
		}
	}
}

func TestAllQueriesValidate(t *testing.T) {
	cat := Catalog(1)
	var all []*logical.Query
	for _, mk := range []func(Variant) *logical.Query{Q3, Q5, Q7, Q8, Q9, Q10} {
		all = append(all, mk(VariantA), mk(VariantB))
	}
	all = append(all, Q2(), Q11(), Q15())
	for _, q := range all {
		if err := q.Validate(cat); err != nil {
			t.Errorf("%s: %v", q.Name, err)
		}
	}
	for _, q := range Q2D().Queries {
		if err := q.Validate(cat); err != nil {
			t.Errorf("%s: %v", q.Name, err)
		}
	}
}

func TestBatchesBuild(t *testing.T) {
	cat := Catalog(1)
	model := cost.Default()
	for i := 1; i <= 6; i++ {
		opt, err := volcano.NewOptimizer(cat, model, BQ(i))
		if err != nil {
			t.Fatalf("BQ%d: %v", i, err)
		}
		sh := opt.Shareable()
		if len(sh) == 0 {
			t.Errorf("BQ%d: no shareable nodes", i)
		}
		t.Logf("BQ%d: %d groups, %d exprs, %d shareable",
			i, opt.Memo.NumGroups(), opt.Memo.NumExprs(), len(sh))
	}
	for _, w := range StandAlone() {
		opt, err := volcano.NewOptimizer(cat, model, w.Batch)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		t.Logf("%s: %d groups, %d exprs, %d shareable",
			w.Name, opt.Memo.NumGroups(), opt.Memo.NumExprs(), len(opt.Shareable()))
	}
}
