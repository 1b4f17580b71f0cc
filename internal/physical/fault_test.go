package physical

import (
	"context"
	"errors"
	"testing"

	"repro/internal/faultinject"
)

// TestFaultBatchPanicRecovered: an injected panic inside a bc(S) evaluation
// must never escape BestCostBatchCtx — on both the sequential and the
// worker-pool dispatch paths it aborts the batch, commits the exact prefix,
// and parks the typed fault on the searcher for TakeFault.
func TestFaultBatchPanicRecovered(t *testing.T) {
	ref := buildSearcher(t, sharedPairQueries()...)
	sh := ref.M.Shareable()
	var mats []NodeSet
	mats = append(mats, NodeSet{})
	for _, id := range sh {
		mats = append(mats, ref.NewNodeSet(id))
	}
	want, _ := ref.BestCostBatchCtx(context.Background(), mats)

	for _, par := range []int{1, 4} {
		s := buildSearcher(t, sharedPairQueries()...)
		withProcs(t, par)
		schedule := faultinject.NewSchedule(7, faultinject.Rule{
			Point: faultinject.OracleEval, N: 2, Panic: true,
		})
		restore := faultinject.Enable(schedule)
		got, ok := s.BestCostBatchCtx(context.Background(), mats)
		restore()
		if ok {
			t.Fatalf("par=%d: faulted batch reported ok", par)
		}
		if par == 1 && len(got) != 1 {
			t.Fatalf("par=1: prefix has %d results, want exactly the 1 before the panic", len(got))
		}
		if len(got) >= len(mats) {
			t.Fatalf("par=%d: faulted batch returned %d of %d results", par, len(got), len(mats))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("par=%d: prefix[%d] = %v, want %v", par, i, got[i], want[i])
			}
		}
		err := s.TakeFault()
		if err == nil {
			t.Fatalf("par=%d: no fault parked", par)
		}
		var pe *faultinject.PanicError
		if !errors.As(err, &pe) || pe.Site != "physical.BestCostBatch" {
			t.Fatalf("par=%d: fault = %#v, want *PanicError at physical.BestCostBatch", par, err)
		}
		var inj *faultinject.Injected
		if !errors.As(err, &inj) || inj.N != 2 {
			t.Fatalf("par=%d: fault does not unwrap to the injection: %v", par, err)
		}
		if s.TakeFault() != nil {
			t.Errorf("par=%d: TakeFault did not clear the fault", par)
		}
	}
}

// TestFaultFreeReplayBitIdentical: with the schedule removed, the same
// searcher inputs replay to exactly the same costs — the determinism anchor
// the chaos suite's replay assertions build on.
func TestFaultFreeReplayBitIdentical(t *testing.T) {
	s := buildSearcher(t, sharedPairQueries()...)
	sh := s.M.Shareable()
	var mats []NodeSet
	for _, id := range sh {
		mats = append(mats, s.NewNodeSet(id))
	}
	withProcs(t, 4)
	a, ok := s.BestCostBatchCtx(context.Background(), mats)
	if !ok {
		t.Fatal("first run aborted")
	}
	b, ok := s.BestCostBatchCtx(context.Background(), mats)
	if !ok {
		t.Fatal("second run aborted")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("replay diverged at %d: %v != %v", i, a[i], b[i])
		}
	}
}

// TestFingerprintStableAndFlagSensitive: the fingerprint is a pure function
// of the compiled search space and moves when a cost-relevant flag toggles
// — the property checkpoint validation relies on.
func TestFingerprintStableAndFlagSensitive(t *testing.T) {
	a := buildSearcher(t, sharedPairQueries()...)
	b := buildSearcher(t, sharedPairQueries()...)
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("identical search spaces have different fingerprints")
	}
	fp := a.Fingerprint()
	a.ExtendedOps = true
	if a.Fingerprint() == fp {
		t.Error("ExtendedOps toggle did not move the fingerprint")
	}
	a.ExtendedOps = false
	if a.Fingerprint() != fp {
		t.Error("fingerprint did not return after the toggle")
	}
}
