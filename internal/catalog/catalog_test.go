package catalog

import (
	"strings"
	"testing"
)

func validTable() *Table {
	return &Table{
		Name: "t",
		Rows: 100,
		Columns: []Column{
			{Name: "id", Type: Int, Width: 8, Distinct: 100, Min: 0, Max: 99},
			{Name: "v", Type: Float, Width: 8, Distinct: 10, Min: 0, Max: 1},
		},
		Indexes: []Index{{Column: "id", Clustered: true}},
	}
}

func TestAddAndLookup(t *testing.T) {
	c := New()
	if err := c.AddTable(validTable()); err != nil {
		t.Fatal(err)
	}
	tbl, ok := c.Table("t")
	if !ok {
		t.Fatal("table not found")
	}
	if col, ok := tbl.Column("v"); !ok || col.Width != 8 {
		t.Errorf("column lookup failed: %+v %v", col, ok)
	}
	if _, ok := tbl.Column("nope"); ok {
		t.Error("found nonexistent column")
	}
	if got := tbl.RowWidth(); got != 16 {
		t.Errorf("RowWidth = %d, want 16", got)
	}
	if ix, ok := tbl.ClusteredIndex(); !ok || ix.Column != "id" {
		t.Errorf("clustered index: %+v %v", ix, ok)
	}
	if _, ok := tbl.IndexOn("v"); ok {
		t.Error("found nonexistent index")
	}
}

func TestAddTableErrors(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Table)
		want string
	}{
		{"empty name", func(tb *Table) { tb.Name = "" }, "empty name"},
		{"zero rows", func(tb *Table) { tb.Rows = 0 }, "non-positive row count"},
		{"no columns", func(tb *Table) { tb.Columns = nil }, "no columns"},
		{"dup column", func(tb *Table) { tb.Columns = append(tb.Columns, Column{Name: "id", Width: 8}) }, "duplicate column"},
		{"empty column name", func(tb *Table) { tb.Columns[0].Name = "" }, "empty name"},
		{"zero width", func(tb *Table) { tb.Columns[0].Width = 0 }, "non-positive width"},
		{"max<min", func(tb *Table) { tb.Columns[0].Min, tb.Columns[0].Max = 5, 1 }, "max < min"},
		{"bad index", func(tb *Table) { tb.Indexes = []Index{{Column: "zzz"}} }, "unknown column"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tb := validTable()
			c.mut(tb)
			err := New().AddTable(tb)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("error = %v, want containing %q", err, c.want)
			}
		})
	}
}

func TestDuplicateTable(t *testing.T) {
	c := New()
	if err := c.AddTable(validTable()); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTable(validTable()); err == nil {
		t.Error("duplicate table accepted")
	}
}

func TestDistinctClamping(t *testing.T) {
	c := New()
	tb := validTable()
	tb.Columns[1].Distinct = 1e9 // more distinct than rows
	tb.Columns[0].Distinct = 0   // non-positive
	if err := c.AddTable(tb); err != nil {
		t.Fatal(err)
	}
	got, _ := c.Table("t")
	if d := got.Columns[1].Distinct; d != 100 {
		t.Errorf("distinct clamped to %v, want rows=100", d)
	}
	if d := got.Columns[0].Distinct; d != 1 {
		t.Errorf("zero distinct should become 1, got %v", d)
	}
}

func TestTablesSortedAndTotalBytes(t *testing.T) {
	c := New()
	b := validTable()
	b.Name = "b"
	a := validTable()
	a.Name = "a"
	c.MustAddTable(b)
	c.MustAddTable(a)
	total := 0.0
	for _, name := range []string{"a", "b"} {
		tb, ok := c.Table(name)
		if !ok || tb.Name != name {
			t.Fatalf("table %q not found", name)
		}
		total += tb.Rows * float64(tb.RowWidth())
	}
	if total != 2*100*16 {
		t.Errorf("total bytes = %v", total)
	}
}

func TestMustAddTablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustAddTable should panic on invalid table")
		}
	}()
	tb := validTable()
	tb.Rows = -1
	New().MustAddTable(tb)
}

func TestColTypeString(t *testing.T) {
	for ct, want := range map[ColType]string{Int: "int", Float: "float", String: "string", Date: "date"} {
		if ct.String() != want {
			t.Errorf("%v", ct)
		}
	}
}
