package tpcd

// Schema-shape helpers consumed by the synthetic workload generator
// (internal/workload): the foreign-key join graph of the TPCD schema and,
// per table, the columns that make sensible selection predicates together
// with their value ranges. Everything here is static metadata derived from
// the Catalog definition in schema.go; the slices returned are freshly
// allocated and safe to mutate, except the edge EdgeBetween returns.

// JoinEdge is one joinable foreign-key relationship between two tables.
// Cols lists the equated column pairs — one pair for simple keys, two for
// the composite lineitem↔partsupp (partkey, suppkey) relationship.
type JoinEdge struct {
	Left, Right string      // table names
	Cols        [][2]string // column pairs, Cols[i][0] on Left, Cols[i][1] on Right
}

// joinEdges is the foreign-key join graph of the TPCD schema, built once:
// EdgeBetween scans it for every join a generated query asks for, so it
// hands out the table's own edges, and JoinEdges copies it.
var joinEdges = []JoinEdge{
	{Left: "lineitem", Right: "orders", Cols: [][2]string{{"orderkey", "orderkey"}}},
	{Left: "lineitem", Right: "part", Cols: [][2]string{{"partkey", "partkey"}}},
	{Left: "lineitem", Right: "supplier", Cols: [][2]string{{"suppkey", "suppkey"}}},
	{Left: "lineitem", Right: "partsupp", Cols: [][2]string{{"partkey", "partkey"}, {"suppkey", "suppkey"}}},
	{Left: "orders", Right: "customer", Cols: [][2]string{{"custkey", "custkey"}}},
	{Left: "customer", Right: "nation", Cols: [][2]string{{"nationkey", "nationkey"}}},
	{Left: "supplier", Right: "nation", Cols: [][2]string{{"nationkey", "nationkey"}}},
	{Left: "partsupp", Right: "part", Cols: [][2]string{{"partkey", "partkey"}}},
	{Left: "partsupp", Right: "supplier", Cols: [][2]string{{"suppkey", "suppkey"}}},
	{Left: "nation", Right: "region", Cols: [][2]string{{"regionkey", "regionkey"}}},
}

// JoinEdges returns the foreign-key join graph of the TPCD schema in a
// fixed, deterministic order. Edges are undirected: generators may traverse
// them from either side.
func JoinEdges() []JoinEdge {
	out := make([]JoinEdge, len(joinEdges))
	for i, e := range joinEdges {
		out[i] = JoinEdge{Left: e.Left, Right: e.Right, Cols: append([][2]string(nil), e.Cols...)}
	}
	return out
}

// EdgeBetween returns the join edge connecting two tables (in either
// orientation), or false if the schema has none. It allocates nothing: the
// edge's Cols is the package's own, to be read and not written.
func EdgeBetween(a, b string) (JoinEdge, bool) {
	for _, e := range joinEdges {
		if (e.Left == a && e.Right == b) || (e.Left == b && e.Right == a) {
			return e, true
		}
	}
	return JoinEdge{}, false
}

// FilterKind says how a filter column is usually constrained.
type FilterKind int

// Filter kinds.
const (
	// FilterEq is an equality selection on a low-cardinality column
	// (mktsegment = 3).
	FilterEq FilterKind = iota
	// FilterRange is a half-open range selection on an ordered column
	// (orderdate < 1100).
	FilterRange
)

// FilterColumn is a column suitable for a selection predicate in generated
// workloads, with the value range selection constants should fall in.
type FilterColumn struct {
	Column   string
	Kind     FilterKind
	Min, Max float64
}

// FilterColumns returns, for each TPCD table, the columns the workload
// generator draws selection predicates from, in a fixed order (the first
// entry is the table's default filter). Tables absent from the map (none
// today) have no sensible filter column.
func FilterColumns() map[string][]FilterColumn {
	return map[string][]FilterColumn{
		"lineitem": {
			{Column: "shipdate", Kind: FilterRange, Min: ShipDateMin, Max: ShipDateMax},
			{Column: "quantity", Kind: FilterRange, Min: 1, Max: 50},
			{Column: "returnflag", Kind: FilterEq, Min: 0, Max: 2},
		},
		"orders": {
			{Column: "orderdate", Kind: FilterRange, Min: OrderDateMin, Max: OrderDateMax},
			{Column: "orderpriority", Kind: FilterEq, Min: 0, Max: 4},
		},
		"customer": {
			{Column: "mktsegment", Kind: FilterEq, Min: 0, Max: 4},
			{Column: "acctbal", Kind: FilterRange, Min: -1000, Max: 10000},
		},
		"part": {
			{Column: "size", Kind: FilterRange, Min: 1, Max: 50},
			{Column: "brand", Kind: FilterEq, Min: 0, Max: 24},
			{Column: "type", Kind: FilterEq, Min: 0, Max: 149},
		},
		"supplier": {
			{Column: "acctbal", Kind: FilterRange, Min: -1000, Max: 10000},
		},
		"partsupp": {
			{Column: "availqty", Kind: FilterRange, Min: 1, Max: 9999},
		},
		"nation": {
			{Column: "name", Kind: FilterEq, Min: 0, Max: 24},
		},
		"region": {
			{Column: "name", Kind: FilterEq, Min: 0, Max: 4},
		},
	}
}
