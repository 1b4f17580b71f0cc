// Package workload is a seeded, deterministic generator of synthetic query
// batches over the TPCD catalog, used to stress the multi-query optimizer
// beyond the paper's BQ1–BQ6 composites (dozens to hundreds of queries per
// batch instead of twelve).
//
// A Spec describes a batch by template rather than by listing queries:
//
//   - Shape picks the join structure of every query — Star (a fact table
//     joined to its direct foreign-key neighbors), Chain (a linear
//     foreign-key path), Snowflake (a star whose dimensions carry their own
//     dimensions), or Mixed (round-robin over the three);
//   - FanOut is the number of relations each query joins (2..MaxFanOut of
//     the shape);
//   - SelectFrac is the probability that a scan carries a selection
//     predicate, and AggFrac the probability that a query is topped by a
//     group-by aggregation;
//   - Sharing is the knob the paper's sharing regime generalizes: every
//     query varies the selection constant on one designated "variant" scan
//     (as the BQ pairs do), and each remaining filtered scan draws its
//     constant from a batch-wide shared pool with probability Sharing, or
//     fresh per query otherwise. At Sharing=1 the queries of a template
//     differ in exactly one constant, so almost every subexpression unifies
//     in the combined LQDAG; at Sharing=0 the leaves rarely unify and the
//     DAG approaches the disjoint union of the per-query plan spaces.
//
// Generation is a pure function of the Spec: the same Spec (seed included)
// produces a byte-identical batch, which Fingerprint makes checkable.
// Generated batches validate against tpcd.Catalog and round-trip through
// volcano.NewOptimizer → core.RunWith → physical plan extraction.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/tpcd"
)

// Shape selects the join structure of generated queries.
type Shape int

// Shapes.
const (
	// Star joins the lineitem fact table to its direct foreign-key
	// neighbors (orders, part, supplier, partsupp).
	Star Shape = iota
	// Chain follows the linear foreign-key path
	// supplier—lineitem—orders—customer—nation—region.
	Chain
	// Snowflake is the star extended with second-level dimensions
	// (orders→customer→nation→region).
	Snowflake
	// Mixed rotates through Star, Chain and Snowflake query by query.
	Mixed
)

// String implements fmt.Stringer.
func (s Shape) String() string {
	switch s {
	case Star:
		return "star"
	case Chain:
		return "chain"
	case Snowflake:
		return "snowflake"
	case Mixed:
		return "mixed"
	default:
		return fmt.Sprintf("Shape(%d)", int(s))
	}
}

// ParseShape parses a shape name as used on the command line.
func ParseShape(s string) (Shape, error) {
	switch s {
	case "star":
		return Star, nil
	case "chain":
		return Chain, nil
	case "snowflake":
		return Snowflake, nil
	case "mixed":
		return Mixed, nil
	}
	return 0, fmt.Errorf("workload: unknown shape %q (want star, chain, snowflake or mixed)", s)
}

// MaxFanOut returns the largest FanOut the shape supports (the number of
// distinct tables its template reaches).
func MaxFanOut(s Shape) int {
	switch s {
	case Star:
		return len(starSteps)
	case Chain:
		return len(chainSteps)
	default: // Snowflake and Mixed reach the full snowflake template.
		return len(snowflakeSteps)
	}
}

// Spec parameterizes one generated batch. The zero value is invalid; start
// from DefaultSpec.
type Spec struct {
	// Seed seeds the generator; equal Specs generate byte-identical
	// batches.
	Seed int64
	// Queries is the batch size (≥ 1).
	Queries int
	// Shape is the join structure of every query.
	Shape Shape
	// FanOut is the number of relations per query, 2..MaxFanOut(Shape).
	// For Mixed, shapes with a smaller template clamp it.
	FanOut int
	// Sharing in [0,1] is the probability that a filtered scan draws its
	// selection constant from the batch-wide shared pool instead of a
	// fresh per-query constant. Higher values mean more LQDAG unification.
	Sharing float64
	// SelectFrac in [0,1] is the probability that a non-variant scan with
	// a filterable column carries a selection predicate. The variant scan
	// always does.
	SelectFrac float64
	// AggFrac in [0,1] is the probability that a query is topped by a
	// group-by aggregation.
	AggFrac float64
	// Skew in [0,1] is the probability that a query is "hot": generated
	// from the batch's one hot template (the star shape at this spec's
	// fan-out) with every non-variant filter drawn deterministically from
	// the shared pool, so hot queries unify into the same combined-DAG
	// groups and differ only in their variant constant. High skew is the
	// adversarial case for per-(group, order) cost caches — the greedy
	// scan concentrates on few hot groups and drives many distinct
	// materialization masks into their buckets. 0 (the default) disables
	// the knob and generates byte-identical batches to earlier versions.
	Skew float64
}

// DefaultSpec returns the spec the stress benchmarks use: star-dominated
// mixed shapes of fan-out 4, selective scans, and half the queries
// aggregated.
func DefaultSpec(queries int, sharing float64) Spec {
	return Spec{
		Seed:       1,
		Queries:    queries,
		Shape:      Mixed,
		FanOut:     4,
		Sharing:    sharing,
		SelectFrac: 0.8,
		AggFrac:    0.5,
	}
}

// Validate checks the spec's parameters.
func (s Spec) Validate() error {
	if s.Queries < 1 {
		return fmt.Errorf("workload: Queries must be ≥ 1, got %d", s.Queries)
	}
	if s.FanOut < 2 {
		return fmt.Errorf("workload: FanOut must be ≥ 2, got %d", s.FanOut)
	}
	if max := MaxFanOut(s.Shape); s.FanOut > max {
		return fmt.Errorf("workload: FanOut %d exceeds MaxFanOut(%s) = %d", s.FanOut, s.Shape, max)
	}
	if s.Shape < Star || s.Shape > Mixed {
		return fmt.Errorf("workload: unknown shape %d", int(s.Shape))
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"Sharing", s.Sharing}, {"SelectFrac", s.SelectFrac}, {"AggFrac", s.AggFrac}, {"Skew", s.Skew}} {
		if math.IsNaN(f.v) || f.v < 0 || f.v > 1 {
			return fmt.Errorf("workload: %s must be in [0,1], got %v", f.name, f.v)
		}
	}
	return nil
}

// step is one table of a shape template: scanned under Alias and joined to
// the already-placed JoinTo alias (empty for the root).
type step struct {
	Table  string
	Alias  string
	JoinTo string // alias of the table this one joins to
}

// The shape templates. Each step after the first attaches to an earlier
// step through a foreign-key edge of the TPCD schema (tpcd.JoinEdges), so
// every prefix is a connected join graph.
var (
	starSteps = []step{
		{Table: "lineitem", Alias: "l"},
		{Table: "orders", Alias: "o", JoinTo: "l"},
		{Table: "part", Alias: "p", JoinTo: "l"},
		{Table: "supplier", Alias: "s", JoinTo: "l"},
		{Table: "partsupp", Alias: "ps", JoinTo: "l"},
	}
	chainSteps = []step{
		{Table: "supplier", Alias: "s"},
		{Table: "lineitem", Alias: "l", JoinTo: "s"},
		{Table: "orders", Alias: "o", JoinTo: "l"},
		{Table: "customer", Alias: "c", JoinTo: "o"},
		{Table: "nation", Alias: "n", JoinTo: "c"},
		{Table: "region", Alias: "r", JoinTo: "n"},
	}
	snowflakeSteps = []step{
		{Table: "lineitem", Alias: "l"},
		{Table: "orders", Alias: "o", JoinTo: "l"},
		{Table: "part", Alias: "p", JoinTo: "l"},
		{Table: "supplier", Alias: "s", JoinTo: "l"},
		{Table: "customer", Alias: "c", JoinTo: "o"},
		{Table: "nation", Alias: "n", JoinTo: "c"},
		{Table: "region", Alias: "r", JoinTo: "n"},
		{Table: "partsupp", Alias: "ps", JoinTo: "l"},
	}
)

func stepsFor(s Shape, fanOut int) []step {
	var t []step
	switch s {
	case Star:
		t = starSteps
	case Chain:
		t = chainSteps
	default:
		t = snowflakeSteps
	}
	if fanOut > len(t) {
		fanOut = len(t)
	}
	return t[:fanOut]
}

// queryShape resolves the concrete shape of the i-th query.
func (s Spec) queryShape(i int) Shape {
	if s.Shape != Mixed {
		return s.Shape
	}
	return []Shape{Star, Chain, Snowflake}[i%3]
}

// Generate emits the batch described by the spec. It is deterministic:
// equal specs produce byte-identical batches (see Fingerprint).
func Generate(spec Spec) (*logical.Batch, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	filters := tpcd.FilterColumns()

	// The batch-wide shared constant pool: one constant per filter column
	// of every filterable table, drawn up front in sorted table order so
	// per-query draws cannot shift it — and so every key a template can
	// ever look up exists (no silent zero constants).
	shared := map[string]float64{}
	tables := make([]string, 0, len(filters))
	for table := range filters {
		tables = append(tables, table)
	}
	sort.Strings(tables)
	for _, table := range tables {
		for _, fc := range filters[table] {
			shared[table+"."+fc.Column] = constant(fc, rng.Float64())
		}
	}

	batch := &logical.Batch{}
	for qi := 0; qi < spec.Queries; qi++ {
		shape := spec.queryShape(qi)
		// The skew draw happens only when the knob is on, so Skew=0 leaves
		// the generator's random stream — and therefore every previously
		// generated batch — byte-identical.
		hot := false
		if spec.Skew > 0 && rng.Float64() < spec.Skew {
			hot = true
			shape = Star
		}
		steps := stepsFor(shape, spec.FanOut)

		bb := logical.NewBlock()
		for _, st := range steps {
			bb.Scan(st.Table, st.Alias)
		}
		for _, st := range steps {
			if st.JoinTo == "" {
				continue
			}
			to := aliasOf(steps, st.JoinTo)
			edge, ok := tpcd.EdgeBetween(st.Table, to.Table)
			if !ok {
				return nil, fmt.Errorf("workload: no schema edge %s–%s (template bug)", st.Table, to.Table)
			}
			for _, cols := range edge.Cols {
				l, r := cols[0], cols[1]
				if edge.Left != st.Table { // edge stored in the other orientation
					l, r = r, l
				}
				bb.Join(st.Alias+"."+l, to.Alias+"."+r)
			}
		}

		// The variant scan rotates over the query's range-filterable tables
		// and always gets a per-query constant — the generalization of the
		// BQ variant pairs. Restricting the rotation to range columns keeps
		// the variant constants distinct reals (equality categories would
		// floor-collide once Queries exceeds the category count), so no two
		// queries of a batch are identical.
		vi := variantStep(steps, qi, filters)
		for si, st := range steps {
			fcs := filters[st.Table]
			if len(fcs) == 0 {
				continue
			}
			switch {
			case si == vi:
				fc := rangeFilter(fcs)
				bb.Cmp(st.Alias+"."+fc.Column, opFor(fc), constant(fc, variantFrac(qi, spec.Queries)))
			case hot:
				// Hot queries filter every filterable scan with the shared
				// constant of the table's first filter column — no random
				// draws — so the whole non-variant subtree unifies across
				// the hot cohort.
				fc := fcs[0]
				bb.Cmp(st.Alias+"."+fc.Column, opFor(fc), shared[st.Table+"."+fc.Column])
			case rng.Float64() < spec.SelectFrac:
				fc := fcs[rng.Intn(len(fcs))]
				var v float64
				if rng.Float64() < spec.Sharing {
					v = shared[st.Table+"."+fc.Column]
				} else {
					v = constant(fc, rng.Float64())
				}
				bb.Cmp(st.Alias+"."+fc.Column, opFor(fc), v)
			}
		}

		if rng.Float64() < spec.AggFrac {
			addAgg(bb, steps)
		}
		batch.Add(bb.Query(fmt.Sprintf("W%03d-%s", qi, shape)))
	}
	return batch, nil
}

// MustGenerate is Generate but panics on an invalid spec; intended for
// benchmarks and static workload definitions.
func MustGenerate(spec Spec) *logical.Batch {
	b, err := Generate(spec)
	if err != nil {
		panic(err)
	}
	return b
}

func aliasOf(steps []step, alias string) step {
	for _, st := range steps {
		if st.Alias == alias {
			return st
		}
	}
	panic("workload: template references missing alias " + alias)
}

// opFor picks the comparison operator for a filter column.
func opFor(fc tpcd.FilterColumn) expr.CmpOp {
	if fc.Kind == tpcd.FilterEq {
		return expr.EQ
	}
	return expr.LT
}

// constant maps a fraction in [0,1) onto a filter column's value range:
// equality filters snap to an integer category, range filters stay in the
// central 80% of the range so the predicate is neither empty nor trivial.
func constant(fc tpcd.FilterColumn, frac float64) float64 {
	if fc.Kind == tpcd.FilterEq {
		return math.Floor(fc.Min + frac*(fc.Max-fc.Min+1))
	}
	return fc.Min + (0.1+0.8*frac)*(fc.Max-fc.Min)
}

// variantFrac spreads the per-query variant constants evenly (and therefore
// distinctly, for range filters) across the value range.
func variantFrac(qi, queries int) float64 {
	return float64(qi+1) / float64(queries+1)
}

// variantStep picks the step index carrying the i-th query's variant
// selection: the rotation runs over the steps whose table has a range
// filter column, so the variant constant is always drawn from a continuum.
// Every shape template starts with such a table, so the fallback to step 0
// is unreachable for the built-in shapes.
func variantStep(steps []step, qi int, filters map[string][]tpcd.FilterColumn) int {
	eligible := make([]int, 0, len(steps))
	for si, st := range steps {
		if hasRangeFilter(filters[st.Table]) {
			eligible = append(eligible, si)
		}
	}
	if len(eligible) == 0 {
		return 0
	}
	return eligible[qi%len(eligible)]
}

func hasRangeFilter(fcs []tpcd.FilterColumn) bool {
	for _, fc := range fcs {
		if fc.Kind == tpcd.FilterRange {
			return true
		}
	}
	return false
}

// rangeFilter returns the table's first range filter column (falling back
// to the first filter for tables without one; unreachable for variant
// scans, which variantStep restricts to range-filterable tables).
func rangeFilter(fcs []tpcd.FilterColumn) tpcd.FilterColumn {
	for _, fc := range fcs {
		if fc.Kind == tpcd.FilterRange {
			return fc
		}
	}
	return fcs[0]
}

// addAgg tops the block with the shape's canonical aggregation: group by a
// date-like column of the fact side and sum a revenue-like column. Using
// one fixed spec per table set makes aggregations unify across queries of
// the same template.
func addAgg(bb *logical.BlockBuilder, steps []step) {
	group, sum := "", ""
	for _, st := range steps {
		switch st.Table {
		case "orders":
			if group == "" {
				group = st.Alias + ".orderdate"
			}
		case "nation":
			group = st.Alias + ".name" // prefer a coarse group when present
		case "lineitem":
			sum = st.Alias + ".extendedprice"
		case "partsupp":
			if sum == "" {
				sum = st.Alias + ".supplycost"
			}
		}
	}
	if group == "" {
		for _, st := range steps {
			if st.Table == "lineitem" {
				group = st.Alias + ".shipdate"
				break
			}
		}
	}
	if group == "" || sum == "" {
		return // template without a sensible aggregation; leave the SPJ block
	}
	bb.GroupBy(group).Sum(sum)
}

// Fingerprint renders the batch canonically, byte for byte: equal strings
// mean structurally identical batches. Determinism tests compare the
// fingerprints of two generations from one Spec.
func Fingerprint(b *logical.Batch) string {
	var sb strings.Builder
	for _, q := range b.Queries {
		sb.WriteString(q.Name)
		sb.WriteByte('\n')
		writeBlock(&sb, q.Root, "  ")
	}
	return sb.String()
}

func writeBlock(sb *strings.Builder, b *logical.Block, indent string) {
	for _, src := range b.Sources {
		if src.Base() {
			fmt.Fprintf(sb, "%sscan %s %s\n", indent, src.Table, src.Alias)
		} else {
			fmt.Fprintf(sb, "%sderived %s\n", indent, src.Alias)
			writeBlock(sb, src.Sub, indent+"  ")
		}
	}
	for _, p := range b.Selects {
		fmt.Fprintf(sb, "%swhere %s\n", indent, p.Fingerprint())
	}
	for _, j := range b.Joins {
		fmt.Fprintf(sb, "%sjoin %s\n", indent, j)
	}
	if b.Agg != nil {
		fmt.Fprintf(sb, "%sagg %s\n", indent, b.Agg.Fingerprint())
	}
}
