package core

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/memo"
	"repro/internal/submod"
)

// sameGroups compares materialization lists (both are emitted in ascending
// element order, so slice equality is set equality).
func sameGroups(a, b []memo.GroupID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFaultInjectedPanicIsolated: an injected worker panic during a greedy
// run must not escape RunWith — the run stops with StopPanic, carries the
// typed fault, and does not price the set on the possibly poisoned
// searcher. Hit 1 is bc(∅), hit 5 the decomposition, hit 40 the search.
func TestFaultInjectedPanicIsolated(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, hit := range []int64{1, 5, 40} {
		opt := bq2Optimizer(t)
		restore := faultinject.Enable(faultinject.NewSchedule(hit,
			faultinject.Rule{Point: faultinject.OracleEval, N: hit, Panic: true}))
		res := RunWith(context.Background(), opt, MarginalGreedy, Config{})
		restore()
		if res.Fault == nil {
			t.Fatalf("hit %d: no fault reported", hit)
		}
		if res.Telemetry.Stopped != submod.StopPanic {
			t.Fatalf("hit %d: stopped %v, want panic", hit, res.Telemetry.Stopped)
		}
		var pe *faultinject.PanicError
		if !errors.As(res.Fault, &pe) {
			t.Fatalf("hit %d: fault %#v is not a *PanicError", hit, res.Fault)
		}
		if res.Cost != 0 || res.Benefit != 0 {
			t.Errorf("hit %d: faulted run priced the set (cost %v)", hit, res.Cost)
		}
	}
}

// TestFaultResumeAfterPanicMatchesUninterrupted: every bestCost call of the
// run is a hit, and a panic at one faults the run. Inside the search it
// leaves a checkpoint — resumed on a FRESH optimizer, as a quarantining
// server would, it must land on exactly the set an uninterrupted run
// selects; in setup (bc(∅), then f(U) and every f(U ∖ {e})) or in the final
// pricing there is no state to resume, and no checkpoint.
func TestFaultResumeAfterPanicMatchesUninterrupted(t *testing.T) {
	refOpt := bq2Optimizer(t)
	ref := RunWith(context.Background(), refOpt, MarginalGreedy, Config{})
	calls, setup := int64(ref.Telemetry.BCCalls), int64(2+len(refOpt.Shareable()))
	resumed := 0
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for hit := int64(1); hit <= 60; hit += 7 {
		opt := bq2Optimizer(t)
		restore := faultinject.Enable(faultinject.NewSchedule(hit,
			faultinject.Rule{Point: faultinject.OracleEval, N: hit, Panic: true}))
		res := RunWith(context.Background(), opt, MarginalGreedy, Config{})
		restore()
		if (res.Fault != nil) != (hit <= calls) {
			t.Fatalf("hit %d of %d: fault %v", hit, calls, res.Fault)
		}
		if inSearch := setup < hit && hit < calls; (res.Checkpoint != nil) != inSearch {
			t.Fatalf("hit %d (setup %d, %d calls): checkpoint %v, want one %t", hit, setup, calls, res.Checkpoint, inSearch)
		}
		if res.Checkpoint == nil {
			continue
		}
		got, err := ResumeWith(context.Background(), bq2Optimizer(t), res.Checkpoint, Config{})
		if err != nil {
			t.Fatalf("hit %d: resume: %v", hit, err)
		}
		resumed++
		if !sameGroups(got.Materialized, ref.Materialized) || got.Cost != ref.Cost {
			t.Fatalf("hit %d: resumed %v (%v) != uninterrupted %v (%v)",
				hit, got.Materialized, got.Cost, ref.Materialized, ref.Cost)
		}
	}
	if resumed == 0 {
		t.Error("no injection produced a resumable checkpoint")
	}
}

// TestFaultResumeAfterRoundCancel: a context cancelled at greedy round k
// (injected via a Round rule, the scheduler-preemption shape) stops with a
// checkpoint whose resume is bit-identical to the uninterrupted run.
func TestFaultResumeAfterRoundCancel(t *testing.T) {
	for _, strat := range []Strategy{MarginalGreedy, LazyGreedyStrategy} {
		ref := RunWith(context.Background(), bq2Optimizer(t), strat, Config{})
		resumed := 0
		for k := int64(1); k <= 9; k += 2 {
			ctx, cancel := context.WithCancel(context.Background())
			restore := faultinject.Enable(faultinject.NewSchedule(k,
				faultinject.Rule{Point: faultinject.Round, N: k, Fn: cancel}))
			res := RunWith(ctx, bq2Optimizer(t), strat, Config{})
			restore()
			cancel()
			if res.Telemetry.Stopped == submod.StopNone {
				continue
			}
			if res.Telemetry.Stopped != submod.StopCancelled {
				t.Fatalf("%v round %d: stopped %v", strat, k, res.Telemetry.Stopped)
			}
			if res.Checkpoint == nil {
				t.Fatalf("%v round %d: cancelled run has no checkpoint", strat, k)
			}
			got, err := ResumeWith(context.Background(), bq2Optimizer(t), res.Checkpoint, Config{})
			if err != nil {
				t.Fatalf("%v round %d: resume: %v", strat, k, err)
			}
			resumed++
			if !sameGroups(got.Materialized, ref.Materialized) || got.Cost != ref.Cost {
				t.Fatalf("%v round %d: resumed %v != uninterrupted %v",
					strat, k, got.Materialized, ref.Materialized)
			}
			if got.Fault != nil || got.Telemetry.Stopped != submod.StopNone {
				t.Fatalf("%v round %d: clean resume reported %v / %v", strat, k, got.Fault, got.Telemetry.Stopped)
			}
		}
		if resumed == 0 {
			t.Errorf("%v: no round cancellation produced a checkpoint", strat)
		}
	}
}

// TestResumeWithRejectsBadCheckpoints: nil and non-resumable snapshots are
// errors, not panics.
func TestResumeWithRejectsBadCheckpoints(t *testing.T) {
	if _, err := ResumeWith(context.Background(), bq2Optimizer(t), nil, Config{}); err == nil {
		t.Error("nil checkpoint accepted")
	}
	bad := &submod.Checkpoint{Algorithm: "EagerGreedy"}
	if _, err := ResumeWith(context.Background(), bq2Optimizer(t), bad, Config{}); err == nil {
		t.Error("non-resumable algorithm accepted")
	}
	if _, err := StrategyOfAlgorithm("Volcano"); err == nil {
		t.Error("StrategyOfAlgorithm accepted a non-lazy strategy")
	}
}
