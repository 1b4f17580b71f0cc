package memo

import (
	"fmt"
	"math/bits"
	"slices"
	"strconv"

	"repro/internal/cardinality"
	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/expr"
	"repro/internal/logical"
)

// Option customizes DAG construction; used by the rule-ablation
// experiments.
type Option func(*buildConfig)

type buildConfig struct {
	noSelectSubsumption bool
	noAggSubsumption    bool
	cache               *BuildCache
}

// WithoutSelectSubsumption disables the select-subsumption rule.
func WithoutSelectSubsumption() Option {
	return func(c *buildConfig) { c.noSelectSubsumption = true }
}

// WithoutAggSubsumption disables the aggregate-subsumption rule.
func WithoutAggSubsumption() Option {
	return func(c *buildConfig) { c.noAggSubsumption = true }
}

// Build constructs and fully expands the combined LQDAG for a batch of
// queries: selections are pushed to the leaves, every connected subset of
// each block's join graph becomes a group with all bushy join derivations
// (the closure of join associativity and commutativity), aggregations are
// placed on top, common subexpressions unify across the batch, and
// select/aggregate subsumption derivations are added. The memo is finished
// when Build returns and nothing changes it afterwards; with a BuildCache
// attached it may be the memo an earlier, identical call returned, shared
// with that call's users.
func Build(cat *catalog.Catalog, model cost.Model, batch *logical.Batch, opts ...Option) (*Memo, error) {
	if batch == nil || len(batch.Queries) == 0 {
		return nil, fmt.Errorf("memo: empty batch")
	}
	var cfg buildConfig
	for _, o := range opts {
		o(&cfg)
	}
	batchKey := cfg.cache.key(batch, &cfg)
	if m := cfg.cache.get(batchKey, cat, model, len(batch.Queries)); m != nil {
		return m, nil
	}
	m := New(cat, model)
	for _, q := range batch.Queries {
		if err := q.Validate(cat); err != nil {
			return nil, err
		}
		root, err := m.buildBlock(q.Root)
		if err != nil {
			return nil, fmt.Errorf("query %q: %w", q.Name, err)
		}
		m.QueryRoots = append(m.QueryRoots, root)
		m.QueryNames = append(m.QueryNames, q.Name)
	}
	if !cfg.noSelectSubsumption {
		m.subsumeSelections()
	}
	if !cfg.noAggSubsumption {
		m.subsumeAggregates()
	}
	m.projectWidths()
	// What only construction reads is released here, not held with the memo.
	m.bySig, m.scans, m.used = nil, nil, nil
	cfg.cache.hold(batchKey, m)
	return m, nil
}

// resolver maps a block's original column references to canonical ones.
type resolver struct {
	m *Memo
	// idx maps a source alias to its index in the block's source list.
	idx map[string]int
	// leaf[i] is the leaf group of base source src[i], or the sub-block's
	// root group when src[i] is derived.
	src  []logical.Source
	leaf []GroupID
}

// col canonicalizes one column reference.
func (r *resolver) col(c expr.Col) (expr.Col, error) {
	i, ok := r.idx[c.Alias]
	if !ok {
		return expr.Col{}, fmt.Errorf("unresolved alias %q", c.Alias)
	}
	if r.src[i].Base() {
		cc := expr.Col{Alias: CanonAlias(r.leaf[i]), Column: c.Column}
		r.m.noteUsed(cc)
		return cc, nil
	}
	// Match the exposed column by name among the derived group's outputs.
	props := r.m.Group(r.leaf[i]).Props
	for _, cc := range props.ColumnList() {
		if cc.Column == c.Column {
			r.m.noteUsed(cc)
			return cc, nil
		}
	}
	return expr.Col{}, fmt.Errorf("derived source %q does not expose column %q", c.Alias, c.Column)
}

// buildBlock expands one block and returns its root group. Each call is one
// consumption context: the groups it reaches are consumed under a context
// id of its own. It checks the source bound itself: the 1<<n table below
// must never depend on a caller having validated the query.
func (m *Memo) buildBlock(b *logical.Block) (GroupID, error) {
	if err := b.CheckSources(); err != nil {
		return 0, fmt.Errorf("memo: %w", err)
	}
	m.contexts++
	ctx := m.contexts
	n := len(b.Sources)
	leafGID := make([]GroupID, n)
	res := &resolver{m: m, idx: make(map[string]int, n), src: b.Sources, leaf: leafGID}
	ordCount := map[string]int{}
	// twins is set when two sources resolve to one group (identical derived
	// tables, or a derived table that is a bare scan this block repeats):
	// distinct partitions of a subset can then name the same ordered child
	// pair, even in a join group this block creates.
	twins := false

	for i, src := range b.Sources {
		if src.Base() {
			pred := b.SelectFor(src.Alias)
			// The signature renders the selection with its alias anonymized,
			// so unification is alias-independent.
			anon := rewriteAlias(pred, src.Alias, "$")
			key := "scan|" + src.Table + "|" + anon.Fingerprint()
			ord := ordCount[key]
			ordCount[key]++
			sig := key + "|" + strconv.Itoa(ord)
			g, isNew := m.internGroup(sig)
			if isNew {
				t, ok := m.Cat.Table(src.Table)
				if !ok {
					return 0, fmt.Errorf("memo: table %q not in catalog", src.Table)
				}
				alias := CanonAlias(g.ID)
				canonPred := rewriteAlias(pred, src.Alias, alias)
				for _, c := range canonPred.Conj {
					m.noteUsed(c.Col)
				}
				g.Props = cardinality.ApplySelect(cardinality.BaseProps(t, alias), canonPred)
				g.Leaf = true
				g.BasePred = !pred.True()
				m.addExpr(&MExpr{Kind: OpScan, Group: g.ID, Table: src.Table, Alias: src.Alias, Pred: canonPred})
				m.scans = append(m.scans, scanLeaf{g: g, table: t, alias: alias, anon: anon})
			}
			leafGID[i] = g.ID
		} else {
			sub, err := m.buildBlock(src.Sub)
			if err != nil {
				return 0, err
			}
			leafGID[i] = sub
		}
		twins = twins || slices.Contains(leafGID[:i], leafGID[i])
		res.idx[src.Alias] = i
		m.addConsumer(leafGID[i], ctx)
	}

	// Canonicalize the join conditions and record which source indexes each
	// condition touches.
	type condInfo struct {
		cond expr.EqJoin
		li   int // source index of the left column
		ri   int // source index of the right column
	}
	conds := make([]condInfo, 0, len(b.Joins))
	for _, j := range b.Joins {
		l, err := res.col(j.Left)
		if err != nil {
			return 0, err
		}
		r, err := res.col(j.Right)
		if err != nil {
			return 0, err
		}
		conds = append(conds, condInfo{
			cond: expr.EqJoin{Left: l, Right: r}.Canonical(),
			li:   res.idx[j.Left.Alias],
			ri:   res.idx[j.Right.Alias],
		})
	}

	var rootGID GroupID
	if n == 1 {
		rootGID = leafGID[0]
	} else {
		// Connectivity over source indexes.
		adj := make([]uint64, n)
		for _, ci := range conds {
			adj[ci.li] |= 1 << uint(ci.ri)
			adj[ci.ri] |= 1 << uint(ci.li)
		}
		connected := func(mask uint64) bool {
			start := uint64(1) << uint(bits.TrailingZeros64(mask))
			seen := start
			for {
				grow := seen
				for t := seen; t != 0; t &= t - 1 {
					grow |= adj[bits.TrailingZeros64(t)] & mask
				}
				if grow == seen {
					break
				}
				seen = grow
			}
			return seen == mask
		}
		// inner, cross and ids are scratch reused across subsets: only the
		// cross conditions of an accepted partition are retained (copied at
		// exact size into the join node).
		var inner, cross []expr.EqJoin
		var leaves []cardinality.Props
		ids := make([]GroupID, 0, n)
		// groupOf maps a source-index mask to its group, or noGroup when the
		// subset is not connected. Masks are visited in ascending order, so
		// both halves of every partition are already decided.
		const noGroup GroupID = -1
		groupOf := make([]GroupID, 1<<uint(n))
		for i := 0; i < n; i++ {
			groupOf[1<<uint(i)] = leafGID[i]
		}
		full := uint64(1)<<uint(n) - 1
		for mask := uint64(1); mask <= full; mask++ {
			if mask&(mask-1) == 0 {
				continue // single source
			}
			if !connected(mask) {
				groupOf[mask] = noGroup
				continue
			}
			ids, inner = ids[:0], inner[:0]
			for t := mask; t != 0; t &= t - 1 {
				ids = append(ids, leafGID[bits.TrailingZeros64(t)])
			}
			for _, ci := range conds {
				if mask&(1<<uint(ci.li)) != 0 && mask&(1<<uint(ci.ri)) != 0 {
					inner = append(inner, ci.cond)
				}
			}
			sig := "join|" + sortedIDs(ids) + "|" + expr.JoinFingerprint(inner)
			g, isNew := m.internGroup(sig)
			if isNew {
				leaves = leaves[:0]
				for _, id := range ids {
					leaves = append(leaves, m.Group(id).Props)
				}
				g.Props = cardinality.JoinSubsetProps(leaves, inner)
			}
			// A group that was there before this subset was reached may
			// already hold some of its partitions: an earlier query that
			// listed the sources in another order left the commuted pairs,
			// so membership is asked per ordered pair, never per group.
			mayRepeat := !isNew || twins
			groupOf[mask] = g.ID
			m.addConsumer(g.ID, ctx)
			// All partitions into two connected halves; counting each
			// unordered partition once by keeping the lowest bit on the
			// left side (commutativity is handled physically).
			low := mask & -mask
			for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
				rest := mask ^ sub
				if sub&low == 0 || groupOf[sub] == noGroup || groupOf[rest] == noGroup {
					continue
				}
				cross = cross[:0]
				for _, ci := range conds {
					lb, rb := uint64(1)<<uint(ci.li), uint64(1)<<uint(ci.ri)
					if (sub&lb != 0 && rest&rb != 0) || (sub&rb != 0 && rest&lb != 0) {
						cross = append(cross, ci.cond)
					}
				}
				if len(cross) == 0 || (mayRepeat && g.joins(groupOf[sub], groupOf[rest])) {
					continue
				}
				m.addExpr(&MExpr{
					Kind:  OpJoin,
					Group: g.ID,
					Conds: slices.Clone(cross),
				}, groupOf[sub], groupOf[rest])
			}
			if len(g.Exprs) == 0 {
				return 0, fmt.Errorf("memo: no join derivation for connected subset (internal error)")
			}
		}
		rootGID = groupOf[full]
	}

	if b.Agg != nil {
		spec := expr.AggSpec{}
		for _, c := range b.Agg.GroupBy {
			cc, err := res.col(c)
			if err != nil {
				return 0, err
			}
			spec.GroupBy = append(spec.GroupBy, cc)
		}
		for _, a := range b.Agg.Aggs {
			if a.Func == expr.Count {
				spec.Aggs = append(spec.Aggs, a)
				continue
			}
			cc, err := res.col(a.Col)
			if err != nil {
				return 0, err
			}
			spec.Aggs = append(spec.Aggs, expr.Agg{Func: a.Func, Col: cc})
		}
		sig := "agg|" + strconv.Itoa(int(rootGID)) + "|" + spec.Fingerprint()
		g, isNew := m.internGroup(sig)
		if isNew {
			g.Props = cardinality.AggProps(m.Group(rootGID).Props, spec)
			sp := spec
			m.addExpr(&MExpr{Kind: OpAgg, Group: g.ID, Spec: &sp}, rootGID)
		}
		m.addConsumer(g.ID, ctx)
		rootGID = g.ID
	}
	return rootGID, nil
}

// rewriteAlias returns the predicate with every reference to `from`
// re-qualified as `to`.
func rewriteAlias(p expr.Pred, from, to string) expr.Pred {
	out := expr.Pred{Conj: make([]expr.Cmp, len(p.Conj))}
	for i, c := range p.Conj {
		col := c.Col
		if col.Alias == from {
			col.Alias = to
		}
		out.Conj[i] = expr.Cmp{Col: col, Op: c.Op, Val: c.Val}
	}
	return out
}
