package exec

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cardinality"
	"repro/internal/expr"
	"repro/internal/memo"
	"repro/internal/physical"
)

// Accounting tallies simulated block I/O so tests can compare plans by an
// estimator-independent measure.
type Accounting struct {
	ReadBlocks  float64 // blocks read from base tables and materializations
	WriteBlocks float64 // blocks written by materializations and spills
	Seeks       int
	RowsOut     int
}

// Total returns a single scalar in the cost model's spirit (reads weighted
// 1, writes 2, matching the 2 ms / 4 ms transfer times).
func (a Accounting) Total() float64 {
	return a.ReadBlocks + 2*a.WriteBlocks + float64(a.Seeks)*5
}

// memBlocks mirrors the cost model's 6 MB operator memory in 4 KB blocks;
// the executor uses it only for spill accounting.
const memBlocks = 1536

// stored is one materialized intermediate result.
type stored struct {
	schema *Schema
	rows   []Row
	blocks float64
}

// Engine executes consolidated plans against synthetic data.
type Engine struct {
	Gen *Generator
	M   *memo.Memo
	IO  Accounting

	store map[memo.GroupID]stored
}

// NewEngine returns an engine over the memo the plan was extracted from.
func NewEngine(gen *Generator, m *memo.Memo) *Engine {
	return &Engine{Gen: gen, M: m, store: map[memo.GroupID]stored{}}
}

// task is the execution context of one RunConsolidated call: the engine's
// state plus the call's running I/O tally.
type task struct {
	e  *Engine
	io Accounting
}

// QueryResult is the output of one query of the batch.
type QueryResult struct {
	Name   string
	Schema *Schema
	Rows   []Row
}

// RunConsolidated executes a consolidated plan: materialization steps
// first (each computed once and written to the simulated disk), then every
// query plan (reading shared results where the plan says so). Steps run
// in the plan's order, which BestPlan sorts by depth, so a step that reads
// another step's materialization always runs after it.
func (e *Engine) RunConsolidated(cp *physical.ConsolidatedPlan) ([]QueryResult, error) {
	t := &task{e: e, io: e.IO}
	defer func() { e.IO = t.io }()
	for _, st := range cp.Steps {
		schema, rows, err := t.run(st.Plan)
		if err != nil {
			return nil, fmt.Errorf("materializing group %d: %w", st.Group, err)
		}
		blocks := e.blocksFor(len(rows), len(schema.Names))
		t.io.WriteBlocks += blocks
		t.io.Seeks++
		e.store[st.Group] = stored{schema: schema, rows: rows, blocks: blocks}
	}
	var out []QueryResult
	for i, qp := range cp.Queries {
		schema, rows, err := t.run(qp)
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		t.io.RowsOut += len(rows)
		out = append(out, QueryResult{Name: queryName(cp, i), Schema: schema, Rows: rows})
	}
	return out, nil
}

func queryName(cp *physical.ConsolidatedPlan, i int) string {
	if i < len(cp.QueryNames) {
		return cp.QueryNames[i]
	}
	return fmt.Sprintf("query-%d", i)
}

func (e *Engine) blocksFor(rows, cols int) float64 {
	bytes := float64(rows*cols) * 8
	return math.Max(1, math.Ceil(bytes/4096))
}

// run executes one plan node tree.
func (t *task) run(n *physical.PlanNode) (*Schema, []Row, error) {
	switch n.Op {
	case physical.OpNameScan, physical.OpNameIndexScan:
		return t.runScan(n)
	case physical.OpNameMatScan:
		st, ok := t.e.store[n.Group]
		if !ok {
			return nil, nil, fmt.Errorf("matscan of group %d before materialization", n.Group)
		}
		t.io.ReadBlocks += st.blocks
		t.io.Seeks++
		return st.schema, st.rows, nil
	case physical.OpNameFilter:
		schema, rows, err := t.run(n.Children[0])
		if err != nil {
			return nil, nil, err
		}
		out, err := filterRows(schema, rows, n.Pred)
		if err != nil {
			return nil, nil, err
		}
		// A subsumption filter derives one leaf group from another leaf
		// group over the same table: the data is the child's, but parents
		// address columns under this group's canonical alias.
		return renameAliases(schema, memo.CanonAlias(n.Group)), out, nil
	case physical.OpNameSort:
		schema, rows, err := t.run(n.Children[0])
		if err != nil {
			return nil, nil, err
		}
		// External-sort accounting: inputs beyond the 6 MB operator memory
		// spill run files once and read them back for the merge.
		if blocks := t.e.blocksFor(len(rows), len(schema.Names)); blocks > memBlocks {
			t.io.WriteBlocks += blocks
			t.io.ReadBlocks += blocks
			t.io.Seeks += 2
		}
		sorted, err := sortRows(schema, rows, n.Order)
		return schema, sorted, err
	case physical.OpNameMergeJoin, physical.OpNameHashJoin, physical.OpNameBNLJ:
		return t.runJoin(n)
	case physical.OpNameSortAgg, physical.OpNameHashAgg:
		return t.runAgg(n)
	case physical.OpNameReAgg:
		return t.runReAgg(n)
	default:
		return nil, nil, fmt.Errorf("exec: unknown operator %q", n.Op)
	}
}

// runScan generates the base table restricted to the group's projected
// columns, applies the pushed-down predicate, and charges I/O for the
// stored relation (index scans charge only the matching fraction).
func (t *task) runScan(n *physical.PlanNode) (*Schema, []Row, error) {
	grp := t.e.M.Group(n.Group)
	var cols []string
	var names []string
	for _, cc := range grp.Props.ColumnList() {
		cols = append(cols, cc.Column)
		names = append(names, cc.String())
	}
	_, rows, err := t.e.Gen.Table(n.Table, cols)
	if err != nil {
		return nil, nil, err
	}
	schema := NewSchema(names...)
	out, err := filterRows(schema, rows, n.Pred)
	if err != nil {
		return nil, nil, err
	}
	tbl, _ := t.e.Gen.Cat.Table(n.Table)
	genRows := len(rows)
	tableBlocks := math.Max(1, math.Ceil(float64(genRows)*float64(tbl.RowWidth())/4096))
	if n.Op == physical.OpNameIndexScan && genRows > 0 {
		frac := float64(len(out)) / float64(genRows)
		t.io.ReadBlocks += math.Max(1, tableBlocks*frac)
	} else {
		t.io.ReadBlocks += tableBlocks
	}
	t.io.Seeks++
	if !sortedByOrder(schema, out, n.Order) {
		// Clustered storage order: the generator emits key order already;
		// enforce explicitly for robustness.
		out, err = sortRows(schema, out, n.Order)
		if err != nil {
			return nil, nil, err
		}
	}
	return schema, out, nil
}

func (t *task) runJoin(n *physical.PlanNode) (*Schema, []Row, error) {
	ls, lrows, err := t.run(n.Children[0])
	if err != nil {
		return nil, nil, err
	}
	rs, rrows, err := t.run(n.Children[1])
	if err != nil {
		return nil, nil, err
	}
	type pair struct{ l, r int }
	var keys []pair
	for _, c := range n.Conds {
		lp, rp := ls.Pos(c.Left.String()), rs.Pos(c.Right.String())
		if lp < 0 || rp < 0 {
			lp, rp = ls.Pos(c.Right.String()), rs.Pos(c.Left.String())
		}
		if lp < 0 || rp < 0 {
			return nil, nil, fmt.Errorf("exec: join condition %s not resolvable", c)
		}
		keys = append(keys, pair{lp, rp})
	}
	schema := ls.Concat(rs)
	var lp, rp []int
	for _, k := range keys {
		lp = append(lp, k.l)
		rp = append(rp, k.r)
	}
	var out []Row
	switch {
	case n.Op == physical.OpNameMergeJoin && len(keys) > 0:
		out = mergeJoin(lrows, rrows, lp, rp)
	case n.Op == physical.OpNameHashJoin && len(keys) > 0:
		// Hash equi-join: build on the right, probe with the left.
		idx := map[string][]int{}
		keyOf := func(r Row, ps []int) string {
			k := ""
			for _, p := range ps {
				k += fmt.Sprintf("%v|", r[p])
			}
			return k
		}
		for i, r := range rrows {
			idx[keyOf(r, rp)] = append(idx[keyOf(r, rp)], i)
		}
		for _, l := range lrows {
			for _, ri := range idx[keyOf(l, lp)] {
				out = append(out, concatRows(l, rrows[ri]))
			}
		}
	default:
		// Block nested loops: account for inner re-reads when the outer
		// exceeds operator memory.
		outerBlocks := t.e.blocksFor(len(lrows), len(ls.Names))
		innerBlocks := t.e.blocksFor(len(rrows), len(rs.Names))
		passes := int(math.Ceil(outerBlocks / float64(memBlocks-2)))
		if passes > 1 {
			t.io.ReadBlocks += float64(passes-1) * innerBlocks
			t.io.Seeks += passes - 1
		}
		for _, l := range lrows {
			for _, r := range rrows {
				match := true
				for _, k := range keys {
					if l[k.l] != r[k.r] {
						match = false
						break
					}
				}
				if match {
					out = append(out, concatRows(l, r))
				}
			}
		}
	}
	return schema, out, nil
}

func (t *task) runAgg(n *physical.PlanNode) (*Schema, []Row, error) {
	cs, rows, err := t.run(n.Children[0])
	if err != nil {
		return nil, nil, err
	}
	return aggregate(cs, rows, *n.Spec, nil)
}

// runReAgg recomputes a coarse aggregation from a finer one: the input
// columns to aggregate are the finer aggregation's outputs, and sums
// re-sum, counts sum, mins re-min, maxes re-max.
func (t *task) runReAgg(n *physical.PlanNode) (*Schema, []Row, error) {
	cs, rows, err := t.run(n.Children[0])
	if err != nil {
		return nil, nil, err
	}
	fine := t.e.fineSpec(n.Children[0].Group)
	if fine == nil {
		return nil, nil, fmt.Errorf("exec: reagg child group %d has no aggregation", n.Children[0].Group)
	}
	return aggregate(cs, rows, *n.Spec, fine)
}

// fineSpec returns the aggregation spec of the group (the finer agg a
// ReAgg reads from).
func (e *Engine) fineSpec(g memo.GroupID) *expr.AggSpec {
	for _, ex := range e.M.Group(g).Exprs {
		if ex.Kind == memo.OpAgg {
			return ex.Spec
		}
	}
	return nil
}

// aggregate groups rows by spec.GroupBy and computes the aggregates. When
// fine is non-nil the input is the output of the finer aggregation fine,
// and each aggregate reads its counterpart column (sum of sums, sum of
// counts, min of mins, max of maxes).
func aggregate(s *Schema, rows []Row, spec expr.AggSpec, fine *expr.AggSpec) (*Schema, []Row, error) {
	gbPos := make([]int, len(spec.GroupBy))
	var names []string
	for i, c := range spec.GroupBy {
		p := s.Pos(c.String())
		if p < 0 {
			return nil, nil, fmt.Errorf("exec: group-by column %s missing", c)
		}
		gbPos[i] = p
		names = append(names, c.String())
	}
	type aggIn struct {
		pos   int
		merge expr.AggFunc
	}
	ins := make([]aggIn, len(spec.Aggs))
	for i, a := range spec.Aggs {
		var col string
		merge := a.Func
		if fine != nil {
			col = cardinality.AggOutputCol(*fine, a).String()
			if a.Func == expr.Count {
				merge = expr.Sum // sum of partial counts
			}
		} else if a.Func == expr.Count {
			col = "" // count(*) needs no input column
		} else {
			col = a.Col.String()
		}
		p := -1
		if col != "" {
			p = s.Pos(col)
			if p < 0 {
				return nil, nil, fmt.Errorf("exec: aggregate input column %s missing", col)
			}
		}
		ins[i] = aggIn{pos: p, merge: merge}
		names = append(names, cardinality.AggOutputCol(spec, a).String())
	}
	groups := map[string]Row{}
	var order []string
	for _, r := range rows {
		key := ""
		for _, p := range gbPos {
			key += fmt.Sprintf("%v|", r[p])
		}
		acc, ok := groups[key]
		if !ok {
			acc = make(Row, len(gbPos)+len(ins))
			for i, p := range gbPos {
				acc[i] = r[p]
			}
			for i, in := range ins {
				switch {
				case in.pos < 0:
					acc[len(gbPos)+i] = 1 // count(*)
				default:
					acc[len(gbPos)+i] = r[in.pos]
				}
			}
			groups[key] = acc
			order = append(order, key)
			continue
		}
		for i, in := range ins {
			v := 1.0
			if in.pos >= 0 {
				v = r[in.pos]
			}
			j := len(gbPos) + i
			switch in.merge {
			case expr.Sum, expr.Count:
				acc[j] += v
			case expr.Min:
				if v < acc[j] {
					acc[j] = v
				}
			case expr.Max:
				if v > acc[j] {
					acc[j] = v
				}
			}
		}
	}
	sort.Strings(order)
	out := make([]Row, 0, len(groups))
	for _, k := range order {
		out = append(out, groups[k])
	}
	return NewSchema(names...), out, nil
}

func filterRows(s *Schema, rows []Row, pred expr.Pred) ([]Row, error) {
	if pred.True() {
		return rows, nil
	}
	type cp struct {
		pos int
		op  expr.CmpOp
		val float64
	}
	cps := make([]cp, len(pred.Conj))
	for i, c := range pred.Conj {
		p := s.Pos(c.Col.String())
		if p < 0 {
			return nil, fmt.Errorf("exec: predicate column %s missing", c.Col)
		}
		cps[i] = cp{p, c.Op, c.Val}
	}
	var out []Row
	for _, r := range rows {
		ok := true
		for _, c := range cps {
			if !cmpEval(r[c.pos], c.op, c.val) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, r)
		}
	}
	return out, nil
}

func cmpEval(v float64, op expr.CmpOp, val float64) bool {
	switch op {
	case expr.EQ:
		return v == val
	case expr.LT:
		return v < val
	case expr.LE:
		return v <= val
	case expr.GT:
		return v > val
	case expr.GE:
		return v >= val
	default:
		return false
	}
}

func sortRows(s *Schema, rows []Row, ord physical.Order) ([]Row, error) {
	if len(ord) == 0 {
		return rows, nil
	}
	pos := make([]int, len(ord))
	for i, c := range ord {
		p := s.Pos(c.String())
		if p < 0 {
			return nil, fmt.Errorf("exec: sort column %s missing", c)
		}
		pos[i] = p
	}
	out := append([]Row(nil), rows...)
	sort.SliceStable(out, func(i, j int) bool {
		for _, p := range pos {
			if out[i][p] != out[j][p] {
				return out[i][p] < out[j][p]
			}
		}
		return false
	})
	return out, nil
}

func sortedByOrder(s *Schema, rows []Row, ord physical.Order) bool {
	if len(ord) == 0 {
		return true
	}
	for _, c := range ord {
		if s.Pos(c.String()) < 0 {
			return false
		}
	}
	for i := 1; i < len(rows); i++ {
		for _, c := range ord {
			p := s.Pos(c.String())
			if rows[i-1][p] < rows[i][p] {
				break
			}
			if rows[i-1][p] > rows[i][p] {
				return false
			}
		}
	}
	return true
}

// mergeJoin is a textbook sort-merge equi-join over inputs sorted on the
// key positions: two cursors advance in lockstep, and runs of equal keys
// produce their cross product. Inputs that are not actually sorted (which
// would indicate a plan bug) are defensively sorted first so the join is
// still correct.
func mergeJoin(l, r []Row, lp, rp []int) []Row {
	l = ensureSortedBy(l, lp)
	r = ensureSortedBy(r, rp)
	var out []Row
	i, j := 0, 0
	for i < len(l) && j < len(r) {
		c := compareKeys(l[i], r[j], lp, rp)
		switch {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			// Find the run of equal keys on both sides.
			i2 := i
			for i2 < len(l) && compareKeys(l[i2], r[j], lp, rp) == 0 {
				i2++
			}
			j2 := j
			for j2 < len(r) && compareKeys(l[i], r[j2], lp, rp) == 0 {
				j2++
			}
			for a := i; a < i2; a++ {
				for b := j; b < j2; b++ {
					out = append(out, concatRows(l[a], r[b]))
				}
			}
			i, j = i2, j2
		}
	}
	return out
}

func compareKeys(l, r Row, lp, rp []int) int {
	for k := range lp {
		lv, rv := l[lp[k]], r[rp[k]]
		if lv < rv {
			return -1
		}
		if lv > rv {
			return 1
		}
	}
	return 0
}

func ensureSortedBy(rows []Row, ps []int) []Row {
	for i := 1; i < len(rows); i++ {
		if compareKeys(rows[i-1], rows[i], ps, ps) > 0 {
			out := append([]Row(nil), rows...)
			sort.SliceStable(out, func(a, b int) bool {
				return compareKeys(out[a], out[b], ps, ps) < 0
			})
			return out
		}
	}
	return rows
}

// renameAliases requalifies every "alias.column" name under the given
// alias; used when a plan node re-labels another group's data as its own.
func renameAliases(s *Schema, alias string) *Schema {
	names := make([]string, len(s.Names))
	for i, n := range s.Names {
		if j := indexByte(n, '.'); j >= 0 {
			names[i] = alias + n[j:]
		} else {
			names[i] = n
		}
	}
	return NewSchema(names...)
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return -1
}

func concatRows(a, b Row) Row {
	out := make(Row, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	return out
}
