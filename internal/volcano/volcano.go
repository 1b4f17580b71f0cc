// Package volcano is the optimizer facade: it builds and expands the
// combined AND-OR DAG for a batch of queries and hands the MQO algorithms
// (internal/core) the searcher over it, whose black-box bestCost(Q, S)
// oracle (BestCost, BestCostBatchCtx) they are written against. The name
// follows the Volcano/Cascades framework the paper targets.
package volcano

import (
	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/logical"
	"repro/internal/memo"
	"repro/internal/physical"
)

// Optimizer is the multi-query optimizer state for one batch: the memo and
// the searcher over it, whose methods — NewNodeSet, BestCost,
// BestCostBatchCtx, Fingerprint, … — it carries. A searcher's operator flags
// (ExtendedOps, Incremental) are set before its first evaluation.
type Optimizer struct {
	Memo *memo.Memo
	*physical.Searcher
}

// NewOptimizer builds and fully expands the combined DAG for the batch.
// Options are forwarded to memo.Build (rule ablations, and a BuildCache:
// with one, a batch it has seen gets back the memo — and the search space
// compiled onto it — that the first build made, shared read-only).
func NewOptimizer(cat *catalog.Catalog, model cost.Model, batch *logical.Batch, opts ...memo.Option) (*Optimizer, error) {
	m, err := memo.Build(cat, model, batch, opts...)
	if err != nil {
		return nil, err
	}
	return &Optimizer{Memo: m, Searcher: physical.NewSearcher(m)}, nil
}

// Shareable returns the candidate nodes for materialization.
func (o *Optimizer) Shareable() []memo.GroupID {
	return o.Memo.Shareable()
}

// Plan extracts the optimal consolidated plan for the materialization set.
func (o *Optimizer) Plan(s physical.NodeSet) *physical.ConsolidatedPlan {
	return o.BestPlan(s)
}
