// Package catalog defines schemas, table and column statistics, and index
// metadata used by the optimizer's cardinality and cost estimation.
//
// The optimizer is agnostic to how statistics are obtained; this package
// provides an in-memory catalog that workload generators (e.g. the TPCD
// catalog in internal/tpcd) populate and the estimator consumes.
package catalog

import "fmt"

// ColType is the logical type of a column. It matters only for default
// widths and for synthetic data generation.
type ColType int

const (
	// Int is a 64-bit integer column.
	Int ColType = iota
	// Float is a 64-bit floating point column.
	Float
	// String is a fixed-width string column.
	String
	// Date is a date column stored as days since an epoch.
	Date
)

// String implements fmt.Stringer.
func (t ColType) String() string {
	switch t {
	case Int:
		return "int"
	case Float:
		return "float"
	case String:
		return "string"
	case Date:
		return "date"
	default:
		return fmt.Sprintf("ColType(%d)", int(t))
	}
}

// Column describes one column of a base table, including the statistics the
// estimator needs: the number of distinct values and the value range.
type Column struct {
	Name     string
	Type     ColType
	Width    int     // bytes per value
	Distinct float64 // number of distinct values
	Min, Max float64 // value range (for Int/Float/Date)
}

// Index describes an index on a single column of a table.
type Index struct {
	Column    string
	Clustered bool
}

// Table describes a base relation: its columns, row count and indexes.
type Table struct {
	Name    string
	Rows    float64
	Columns []Column
	Indexes []Index

	colByName map[string]int
}

// Column returns the named column, or false if it does not exist.
func (t *Table) Column(name string) (Column, bool) {
	i, ok := t.colByName[name]
	if !ok {
		return Column{}, false
	}
	return t.Columns[i], true
}

// RowWidth returns the width in bytes of one tuple of the table.
func (t *Table) RowWidth() int {
	w := 0
	for _, c := range t.Columns {
		w += c.Width
	}
	return w
}

// IndexOn returns the index on the given column, or false if none exists.
func (t *Table) IndexOn(column string) (Index, bool) {
	for _, ix := range t.Indexes {
		if ix.Column == column {
			return ix, true
		}
	}
	return Index{}, false
}

// ClusteredIndex returns the table's clustered index, or false if none.
func (t *Table) ClusteredIndex() (Index, bool) {
	for _, ix := range t.Indexes {
		if ix.Clustered {
			return ix, true
		}
	}
	return Index{}, false
}

// Catalog is a set of tables keyed by name.
type Catalog struct {
	tables map[string]*Table
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

// AddTable registers a table. It returns an error if the name is already
// taken, a column name repeats, or statistics are inconsistent (e.g. more
// distinct values than rows, zero widths).
func (c *Catalog) AddTable(t *Table) error {
	if t.Name == "" {
		return fmt.Errorf("catalog: table with empty name")
	}
	if _, dup := c.tables[t.Name]; dup {
		return fmt.Errorf("catalog: duplicate table %q", t.Name)
	}
	if t.Rows <= 0 {
		return fmt.Errorf("catalog: table %q has non-positive row count %v", t.Name, t.Rows)
	}
	if len(t.Columns) == 0 {
		return fmt.Errorf("catalog: table %q has no columns", t.Name)
	}
	t.colByName = make(map[string]int, len(t.Columns))
	for i := range t.Columns {
		col := &t.Columns[i]
		if col.Name == "" {
			return fmt.Errorf("catalog: table %q has a column with empty name", t.Name)
		}
		if _, dup := t.colByName[col.Name]; dup {
			return fmt.Errorf("catalog: table %q has duplicate column %q", t.Name, col.Name)
		}
		if col.Width <= 0 {
			return fmt.Errorf("catalog: column %s.%s has non-positive width", t.Name, col.Name)
		}
		if col.Distinct <= 0 {
			col.Distinct = 1
		}
		if col.Distinct > t.Rows {
			col.Distinct = t.Rows
		}
		if col.Max < col.Min {
			return fmt.Errorf("catalog: column %s.%s has max < min", t.Name, col.Name)
		}
		t.colByName[col.Name] = i
	}
	for _, ix := range t.Indexes {
		if _, ok := t.colByName[ix.Column]; !ok {
			return fmt.Errorf("catalog: index on unknown column %s.%s", t.Name, ix.Column)
		}
	}
	c.tables[t.Name] = t
	return nil
}

// MustAddTable is AddTable but panics on error; intended for static
// workload definitions.
func (c *Catalog) MustAddTable(t *Table) {
	if err := c.AddTable(t); err != nil {
		panic(err)
	}
}

// Table returns the named table, or false if it is not in the catalog.
func (c *Catalog) Table(name string) (*Table, bool) {
	t, ok := c.tables[name]
	return t, ok
}
