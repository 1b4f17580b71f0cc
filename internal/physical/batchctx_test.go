package physical

import (
	"context"
	"testing"
)

// TestBestCostBatchCtxComplete: with a live context the ctx-aware batch is
// bit-identical to the sequential oracle and reports ok.
func TestBestCostBatchCtxComplete(t *testing.T) {
	s := buildSearcher(t, sharedPairQueries()...)
	sh := s.M.Shareable()
	var mats []NodeSet
	mats = append(mats, NodeSet{})
	for _, id := range sh {
		mats = append(mats, s.NewNodeSet(id))
	}
	withProcs(t, 4)
	got, ok := s.BestCostBatchCtx(context.Background(), mats)
	if !ok {
		t.Fatal("live context reported cancelled")
	}
	for i, m := range mats {
		if want := s.BestCost(m); got[i] != want {
			t.Errorf("set %d: batch %v != sequential %v", i, got[i], want)
		}
	}
}

// TestBestCostBatchCtxCancelled: a cancelled context stops the batch before
// any further evaluation and reports ok=false, for both the sequential and
// the concurrent dispatch paths.
func TestBestCostBatchCtxCancelled(t *testing.T) {
	s := buildSearcher(t, sharedPairQueries()...)
	sh := s.M.Shareable()
	mats := make([]NodeSet, 0, len(sh))
	for _, id := range sh {
		mats = append(mats, s.NewNodeSet(id))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, par := range []int{1, 4} {
		withProcs(t, par)
		before := s.BCCalls
		if _, ok := s.BestCostBatchCtx(ctx, mats); ok {
			t.Errorf("par=%d: cancelled context reported ok", par)
		}
		if s.BCCalls != before {
			t.Errorf("par=%d: cancelled batch still ran %d evaluations", par, s.BCCalls-before)
		}
	}
}

// TestExtractCallsCounted: BestPlan reports its extraction resolutions.
func TestExtractCallsCounted(t *testing.T) {
	s := buildSearcher(t, sharedPairQueries()...)
	plan := s.BestPlan(NodeSet{})
	if plan == nil || len(plan.Queries) != 2 {
		t.Fatalf("plan: %+v", plan)
	}
	if s.ExtractCalls == 0 {
		t.Error("ExtractCalls not counted during BestPlan")
	}
	n := s.ExtractCalls
	s.BestPlan(NodeSet{})
	if s.ExtractCalls != 2*n {
		t.Errorf("extraction not deterministic: %d then %d resolutions", n, s.ExtractCalls-n)
	}
}
