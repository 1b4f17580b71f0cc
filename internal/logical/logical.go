// Package logical defines the input query representation consumed by the
// optimizer: queries are trees of SPJ blocks (select-project-join with an
// optional aggregation on top), where each block reads base relations
// and/or the results of nested blocks (derived tables). This is the
// representation the combined AND-OR DAG is built from.
package logical

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/expr"
)

// Source is one input of a block: either a base relation occurrence or a
// derived table (a nested block), identified within the block by an alias.
type Source struct {
	Alias string
	Table string // base relation name; empty if Sub != nil
	Sub   *Block // nested block; nil for base relations
}

// Base reports whether the source is a base relation.
func (s Source) Base() bool { return s.Sub == nil }

// Block is one SPJ(+aggregate) block: a set of sources joined by equi-join
// conditions, filtered by per-alias selection predicates, with an optional
// group-by/aggregate on top.
type Block struct {
	Sources []Source
	Selects []expr.Pred // each predicate references columns of exactly one alias
	Joins   []expr.EqJoin
	Agg     *expr.AggSpec // nil for pure SPJ blocks
}

// Query is a named query: a single root block.
type Query struct {
	Name string
	Root *Block
}

// Batch is a set of queries to be optimized together.
type Batch struct {
	Queries []*Query
}

// Add appends a query to the batch.
func (b *Batch) Add(q *Query) { b.Queries = append(b.Queries, q) }

// SourceByAlias returns the source with the given alias, or false.
func (b *Block) SourceByAlias(alias string) (Source, bool) {
	for _, s := range b.Sources {
		if s.Alias == alias {
			return s, true
		}
	}
	return Source{}, false
}

// SelectFor returns the conjunction of all selection predicates on the
// given alias. A predicate belongs to the least alias its conjuncts
// reference (each references exactly one in a valid block).
func (b *Block) SelectFor(alias string) expr.Pred {
	var p expr.Pred
	for _, sp := range b.Selects {
		if len(sp.Conj) == 0 {
			continue
		}
		least := sp.Conj[0].Col.Alias
		for _, c := range sp.Conj[1:] {
			least = min(least, c.Col.Alias)
		}
		if least == alias {
			p = p.And(sp)
		}
	}
	return p
}

// JoinGraph returns, for each alias, the set of aliases it is directly
// joined with.
func (b *Block) JoinGraph() map[string]map[string]bool {
	g := make(map[string]map[string]bool, len(b.Sources))
	for _, s := range b.Sources {
		g[s.Alias] = map[string]bool{}
	}
	for _, j := range b.Joins {
		la, ra := j.Left.Alias, j.Right.Alias
		if g[la] != nil && g[ra] != nil {
			g[la][ra] = true
			g[ra][la] = true
		}
	}
	return g
}

// MaxBlockSources bounds the sources of one block. The DAG builder
// enumerates every connected subset of a block's join graph and every
// partition of each into two connected halves — up to 2^n groups and 3^n/2
// join operators when every pair of sources is joined — so an unbounded FROM
// list is an unbounded allocation. 11 is the largest n whose worst case (the
// clique) builds in under a second on the 2-vCPU reference box: 0.36 s and
// 105 MB allocated at 11, 1.4 s / 350 MB at 12, 9.2 s / 1.2 GB at 13. A star
// of 11 builds in 29 ms (and would reach a second only at 16); the TPC-D
// schema the workloads join has 8 tables.
const MaxBlockSources = 11

// CheckSources rejects a block with more than MaxBlockSources sources.
func (b *Block) CheckSources() error {
	if n := len(b.Sources); n > MaxBlockSources {
		return fmt.Errorf("block joins %d sources, at most %d are planned", n, MaxBlockSources)
	}
	return nil
}

// Validate checks the query against the catalog: no block has more than
// MaxBlockSources sources, aliases are unique, base tables and columns
// exist, selection predicates are local to one alias, join conditions
// connect two distinct in-scope aliases, aggregates reference in-scope
// columns, and the join graph is connected (we do not plan cross
// products). Nested blocks are validated recursively.
func (q *Query) Validate(cat *catalog.Catalog) error {
	if q.Root == nil {
		return fmt.Errorf("query %q: nil root block", q.Name)
	}
	return validateBlock(q.Name, q.Root, cat)
}

func validateBlock(qname string, b *Block, cat *catalog.Catalog) error {
	if len(b.Sources) == 0 {
		return fmt.Errorf("query %q: block with no sources", qname)
	}
	if err := b.CheckSources(); err != nil {
		return fmt.Errorf("query %q: %w", qname, err)
	}
	seen := map[string]bool{}
	for _, s := range b.Sources {
		if s.Alias == "" {
			return fmt.Errorf("query %q: source with empty alias", qname)
		}
		if seen[s.Alias] {
			return fmt.Errorf("query %q: duplicate alias %q", qname, s.Alias)
		}
		seen[s.Alias] = true
		if s.Base() {
			if _, ok := cat.Table(s.Table); !ok {
				return fmt.Errorf("query %q: unknown table %q (alias %q)", qname, s.Table, s.Alias)
			}
		} else {
			if err := validateBlock(qname, s.Sub, cat); err != nil {
				return err
			}
		}
	}
	checkCol := func(c expr.Col) error {
		src, ok := b.SourceByAlias(c.Alias)
		if !ok {
			return fmt.Errorf("query %q: column %s references unknown alias", qname, c)
		}
		if src.Base() {
			t, _ := cat.Table(src.Table)
			if _, ok := t.Column(c.Column); !ok {
				return fmt.Errorf("query %q: unknown column %s (table %s)", qname, c, src.Table)
			}
		} else {
			if !derivedHasColumn(src.Sub, c.Column) {
				return fmt.Errorf("query %q: derived source %s does not expose column %s", qname, c.Alias, c.Column)
			}
		}
		return nil
	}
	for _, sp := range b.Selects {
		cols := sp.Columns()
		if len(cols) == 0 {
			return fmt.Errorf("query %q: empty selection predicate", qname)
		}
		alias := cols[0].Alias
		for _, c := range cols {
			if c.Alias != alias {
				return fmt.Errorf("query %q: selection predicate %s spans aliases; push-down requires single-alias predicates", qname, sp)
			}
			if err := checkCol(c); err != nil {
				return err
			}
		}
	}
	for _, j := range b.Joins {
		if j.Left.Alias == j.Right.Alias {
			return fmt.Errorf("query %q: join condition %s references one alias", qname, j)
		}
		if err := checkCol(j.Left); err != nil {
			return err
		}
		if err := checkCol(j.Right); err != nil {
			return err
		}
	}
	if b.Agg != nil {
		for _, c := range b.Agg.GroupBy {
			if err := checkCol(c); err != nil {
				return err
			}
		}
		for _, a := range b.Agg.Aggs {
			if a.Func != expr.Count {
				if err := checkCol(a.Col); err != nil {
					return err
				}
			}
		}
	}
	if len(b.Sources) > 1 && !joinConnected(b) {
		return fmt.Errorf("query %q: join graph is not connected (cross products are not planned)", qname)
	}
	return nil
}

// derivedHasColumn reports whether a nested block exposes a column under
// the given name: group-by columns are exposed by their column name, and
// aggregates by their output name (see AggOutputName).
func derivedHasColumn(sub *Block, name string) bool {
	if sub.Agg == nil {
		// A derived SPJ block exposes every column of its sources; we only
		// check alias-stripped names used by consumers.
		for _, s := range sub.Sources {
			_ = s
		}
		return true // full column tracking is deferred to the estimator
	}
	for _, c := range sub.Agg.GroupBy {
		if c.Column == name {
			return true
		}
	}
	for _, a := range sub.Agg.Aggs {
		if AggOutputName(a) == name {
			return true
		}
	}
	return false
}

// AggOutputName returns the column name under which an aggregate's result
// is exposed by a derived table, e.g. sum_extendedprice.
func AggOutputName(a expr.Agg) string {
	if a.Func == expr.Count {
		return "count_all"
	}
	return a.Func.String() + "_" + a.Col.Column
}

// joinConnected reports whether the block's join graph is connected.
func joinConnected(b *Block) bool {
	g := b.JoinGraph()
	if len(g) == 0 {
		return true
	}
	start := b.Sources[0].Alias
	seen := map[string]bool{start: true}
	stack := []string{start}
	for len(stack) > 0 {
		a := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for nb := range g[a] {
			if !seen[nb] {
				seen[nb] = true
				stack = append(stack, nb)
			}
		}
	}
	return len(seen) == len(b.Sources)
}

// Blocks returns the block and all nested blocks in post order (children
// before parents).
func (q *Query) Blocks() []*Block {
	var out []*Block
	var walk func(b *Block)
	walk = func(b *Block) {
		for _, s := range b.Sources {
			if !s.Base() {
				walk(s.Sub)
			}
		}
		out = append(out, b)
	}
	walk(q.Root)
	return out
}
