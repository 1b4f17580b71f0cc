package tpcd

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/volcano"
)

func optimize(t *testing.T, b *logical.Batch) *volcano.Optimizer {
	t.Helper()
	opt, err := volcano.NewOptimizer(Catalog(1), cost.Default(), b)
	if err != nil {
		t.Fatal(err)
	}
	return opt
}

func single(q *logical.Query) *logical.Batch {
	b := &logical.Batch{}
	b.Add(q)
	return b
}

func TestQ15SharesLineitemSlice(t *testing.T) {
	opt := optimize(t, single(Q15()))
	found := false
	for _, id := range opt.Shareable() {
		g := opt.Memo.Group(id)
		if g.Leaf && g.BasePred {
			found = true
		}
	}
	if !found {
		t.Error("Q15's σ(lineitem) slice should be shareable (used by both view references)")
	}
	r := core.RunWith(context.Background(), opt, core.MarginalGreedy, core.Config{})
	if r.Benefit <= 0 {
		t.Error("Q15 internal sharing produced no benefit")
	}
}

func TestQ2InnerOuterShareJoin(t *testing.T) {
	opt := optimize(t, single(Q2()))
	// The partsupp⋈supplier⋈nation⋈σ(region) subset must be consumed by
	// both the outer block and the nested block.
	shared := 0
	for _, id := range opt.Shareable() {
		g := opt.Memo.Group(id)
		if !g.Leaf && g.Consumers.Len() >= 2 {
			shared++
		}
	}
	if shared == 0 {
		t.Error("Q2 has no shared join groups between inner and outer blocks")
	}
	r := core.RunWith(context.Background(), opt, core.MarginalGreedy, core.Config{})
	if r.Benefit <= 0 {
		t.Error("Q2 correlated-subquery sharing produced no benefit")
	}
}

func TestQ2DBatchSharesMore(t *testing.T) {
	// Q2-D (the decorrelated batch) exposes the whole inner aggregate for
	// sharing, so its MQO benefit must be at least Q2's.
	q2 := core.RunWith(context.Background(), optimize(t, single(Q2())), core.MarginalGreedy, core.Config{})
	q2d := core.RunWith(context.Background(), optimize(t, Q2D()), core.MarginalGreedy, core.Config{})
	if q2d.Benefit < q2.Benefit {
		t.Errorf("Q2-D benefit %.0f below Q2 benefit %.0f", q2d.Benefit, q2.Benefit)
	}
}

func TestBQPairsShareAcrossVariants(t *testing.T) {
	// Within every repeated-query pair the expensive core join must unify:
	// at least one non-leaf shareable group per batch.
	for i := 1; i <= 6; i++ {
		opt := optimize(t, BQ(i))
		nonLeaf := 0
		for _, id := range opt.Shareable() {
			if !opt.Memo.Group(id).Leaf {
				nonLeaf++
			}
		}
		if nonLeaf == 0 {
			t.Errorf("BQ%d: no shareable join/aggregate groups", i)
		}
	}
}

func TestBQ6MonotoneVolcanoCost(t *testing.T) {
	// More queries cost more without sharing.
	prev := 0.0
	for i := 1; i <= 6; i++ {
		opt := optimize(t, BQ(i))
		c := opt.BestCost(physical.NodeSet{})
		if c <= prev {
			t.Errorf("BQ%d Volcano cost %v not above BQ%d's %v", i, c, i-1, prev)
		}
		prev = c
	}
}

func TestSubsumptionPairQ10(t *testing.T) {
	// Q10's variants differ by an orderdate lower bound, so the stricter
	// selection must be derivable from the looser one.
	b := &logical.Batch{}
	b.Add(Q10(VariantA))
	b.Add(Q10(VariantB))
	opt := optimize(t, b)
	v := core.RunWith(context.Background(), opt, core.Volcano, core.Config{})
	g := core.RunWith(context.Background(), opt, core.Greedy, core.Config{})
	if g.Cost >= v.Cost {
		t.Errorf("Q10 pair: no benefit (%.0f vs %.0f)", g.Cost, v.Cost)
	}
}

func TestGreedyGainsInPaperRange(t *testing.T) {
	// The paper reports Greedy beating Volcano by up to 57%; our shape
	// check: every batch gains at least 20%, none gains more than 70%.
	for i := 1; i <= 6; i++ {
		opt := optimize(t, BQ(i))
		v := core.RunWith(context.Background(), opt, core.Volcano, core.Config{})
		g := core.RunWith(context.Background(), opt, core.Greedy, core.Config{})
		gain := (v.Cost - g.Cost) / v.Cost
		if gain < 0.20 || gain > 0.70 {
			t.Errorf("BQ%d Greedy gain %.0f%% outside the expected 20–70%% band", i, gain*100)
		}
	}
}

func TestMarginalGreedyMaterializesAtLeastAsMany(t *testing.T) {
	// The paper's qualitative observation: MarginalGreedy picks more,
	// moderate-benefit nodes.
	for i := 2; i <= 6; i++ {
		opt := optimize(t, BQ(i))
		g := core.RunWith(context.Background(), opt, core.Greedy, core.Config{})
		m := core.RunWith(context.Background(), opt, core.MarginalGreedy, core.Config{})
		if len(m.Materialized) < len(g.Materialized) {
			t.Errorf("BQ%d: MarginalGreedy materialized %d < Greedy's %d",
				i, len(m.Materialized), len(g.Materialized))
		}
	}
}
