package repro

import (
	"context"
	"encoding/json"
	"errors"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/tpcd"
)

// TestSessionFaultErrorContract: an injected worker panic inside Optimize
// surfaces as a *FaultError (process intact), contributes only to the
// Faults stat, and — when the run had committed state — carries a
// checkpoint that a FRESH session resumes to the uninterrupted result.
func TestSessionFaultErrorContract(t *testing.T) {
	ref, err := newTestSession(t).Optimize(context.Background(), tpcd.BQ(2),
		WithStrategy(MarginalGreedy))
	if err != nil {
		t.Fatal(err)
	}
	resumed := 0
	for hit := int64(1); hit <= 60; hit += 7 {
		sess := newTestSession(t)
		restore := faultinject.Enable(faultinject.NewSchedule(hit,
			faultinject.Rule{Point: faultinject.OracleEval, N: hit, Panic: true}))
		r, err := sess.Optimize(context.Background(), tpcd.BQ(2),
			WithStrategy(MarginalGreedy), WithParallelism(4))
		restore()
		if err == nil {
			if hit < 40 {
				t.Fatalf("hit %d: no error from faulted run", hit)
			}
			continue // run finished before the scheduled hit
		}
		if r != nil {
			t.Fatalf("hit %d: faulted call returned a result and an error", hit)
		}
		var fe *FaultError
		if !errors.As(err, &fe) {
			t.Fatalf("hit %d: error %#v is not a *FaultError", hit, err)
		}
		var pe *faultinject.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("hit %d: FaultError does not unwrap to the panic: %v", hit, err)
		}
		if fe.Telemetry.Stopped != StopPanic {
			t.Errorf("hit %d: telemetry stopped %v", hit, fe.Telemetry.Stopped)
		}
		st := sess.Stats()
		if st.Faults != 1 || st.Batches != 0 || st.OracleCalls != 0 {
			t.Errorf("hit %d: faulted run leaked into stats: %+v", hit, st)
		}
		if fe.Checkpoint == nil {
			continue
		}
		// The checkpoint must survive its wire form and resume elsewhere.
		b, err := json.Marshal(fe.Checkpoint)
		if err != nil {
			t.Fatalf("hit %d: marshal checkpoint: %v", hit, err)
		}
		var cp Checkpoint
		if err := json.Unmarshal(b, &cp); err != nil {
			t.Fatalf("hit %d: unmarshal checkpoint: %v", hit, err)
		}
		got, err := newTestSession(t).Optimize(context.Background(), tpcd.BQ(2), WithResume(&cp))
		if err != nil {
			t.Fatalf("hit %d: resume on fresh session: %v", hit, err)
		}
		resumed++
		if got.Cost != ref.Cost || len(got.Materialized) != len(ref.Materialized) {
			t.Fatalf("hit %d: resumed cost %v != uninterrupted %v", hit, got.Cost, ref.Cost)
		}
		for i := range got.Materialized {
			if got.Materialized[i] != ref.Materialized[i] {
				t.Fatalf("hit %d: resumed set %v != %v", hit, got.Materialized, ref.Materialized)
			}
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("hit %d: resumed plan invalid: %v", hit, err)
		}
	}
	if resumed == 0 {
		t.Error("no injection produced a resumable session checkpoint")
	}
}

// TestSessionResumeAfterCallBudget: a budget-stopped Optimize returns a
// checkpoint token; resuming it completes to the exact uninterrupted
// result, and the budget applies to the continuation too.
func TestSessionResumeAfterCallBudget(t *testing.T) {
	ref, err := newTestSession(t).Optimize(context.Background(), tpcd.BQ(3))
	if err != nil {
		t.Fatal(err)
	}
	sess := newTestSession(t)
	r, err := sess.Optimize(context.Background(), tpcd.BQ(3),
		WithOracleCallBudget(ref.Telemetry.OracleCalls/2))
	if err != nil {
		t.Fatal(err)
	}
	if r.Telemetry.Stopped != StopCallBudget {
		t.Fatalf("half budget did not stop the run: %v", r.Telemetry.Stopped)
	}
	if r.Checkpoint == nil {
		t.Fatal("budget-stopped run has no checkpoint")
	}
	got, err := sess.Optimize(context.Background(), tpcd.BQ(3), WithResume(r.Checkpoint))
	if err != nil {
		t.Fatal(err)
	}
	if got.Telemetry.Stopped != StopNone || got.Checkpoint != nil {
		t.Fatalf("unbudgeted resume did not finish: %v", got.Telemetry.Stopped)
	}
	if got.Cost != ref.Cost {
		t.Fatalf("resumed cost %v != uninterrupted %v", got.Cost, ref.Cost)
	}
	for i := range got.Materialized {
		if got.Materialized[i] != ref.Materialized[i] {
			t.Fatalf("resumed set %v != %v", got.Materialized, ref.Materialized)
		}
	}
}

// TestSessionResumeFingerprintMismatch: a checkpoint must only resume
// against the search space it was taken from — a different batch, or the
// same batch under different operator flags, is rejected.
func TestSessionResumeFingerprintMismatch(t *testing.T) {
	sess := newTestSession(t)
	ref, err := sess.Optimize(context.Background(), tpcd.BQ(3))
	if err != nil {
		t.Fatal(err)
	}
	r, err := sess.Optimize(context.Background(), tpcd.BQ(3),
		WithOracleCallBudget(ref.Telemetry.OracleCalls/2))
	if err != nil {
		t.Fatal(err)
	}
	if r.Checkpoint == nil {
		t.Fatal("budget-stopped run has no checkpoint")
	}
	if _, err := sess.Optimize(context.Background(), tpcd.BQ(2), WithResume(r.Checkpoint)); !errors.Is(err, ErrResumeMismatch) {
		t.Errorf("different batch: err = %v, want ErrResumeMismatch", err)
	}
	if _, err := sess.Optimize(context.Background(), tpcd.BQ(3), WithResume(r.Checkpoint), WithExtendedOps(true)); !errors.Is(err, ErrResumeMismatch) {
		t.Errorf("different flags: err = %v, want ErrResumeMismatch", err)
	}
	if _, err := sess.Optimize(context.Background(), tpcd.BQ(3), WithResume(&Checkpoint{})); err == nil {
		t.Error("stateless checkpoint accepted")
	}
}

// TestSessionFaultInOneCandidateRound: LazyGreedy — the strategy the server's
// breaker degrades to — refreshes one candidate per oracle round once every
// candidate has been priced. Those rounds go through the batched oracle like
// any other, so each of them passes the injection point, and a panic in one
// is isolated: the call returns a *FaultError with StopPanic and a checkpoint
// a fresh session resumes to the uninterrupted result, instead of the panic
// escaping Optimize.
func TestSessionFaultInOneCandidateRound(t *testing.T) {
	lazy := WithStrategy(core.LazyGreedyStrategy)
	counting := faultinject.NewSchedule(1)
	restore := faultinject.Enable(counting)
	ref, err := newTestSession(t).Optimize(context.Background(), tpcd.BQ(2), lazy)
	restore()
	if err != nil {
		t.Fatal(err)
	}
	firstPass := int64(len(ref.opt.Shareable())) // round 1 prices every candidate in one batch
	evals := counting.Hits(faultinject.OracleEval)
	if evals <= firstPass {
		t.Fatalf("%d evaluations passed the injection point, all of them in the first pass of %d: one-candidate rounds bypass it", evals, firstPass)
	}
	for n := firstPass + 1; n <= evals; n++ {
		restore := faultinject.Enable(faultinject.NewSchedule(n,
			faultinject.Rule{Point: faultinject.OracleEval, N: n, Panic: true}))
		r, err := newTestSession(t).Optimize(context.Background(), tpcd.BQ(2), lazy)
		restore()
		var fe *FaultError
		if r != nil || !errors.As(err, &fe) {
			t.Fatalf("evaluation %d: result %v, error %v; want a *FaultError alone", n, r, err)
		}
		if fe.Telemetry.Stopped != StopPanic || fe.Checkpoint == nil {
			t.Fatalf("evaluation %d: stopped %v, checkpoint %v", n, fe.Telemetry.Stopped, fe.Checkpoint)
		}
		got, err := newTestSession(t).Optimize(context.Background(), tpcd.BQ(2), WithResume(fe.Checkpoint))
		if err != nil {
			t.Fatalf("evaluation %d: resume on a fresh session: %v", n, err)
		}
		if got.Cost != ref.Cost || !slices.Equal(got.Materialized, ref.Materialized) {
			t.Fatalf("evaluation %d: resumed to cost %v set %v, uninterrupted %v %v", n, got.Cost, got.Materialized, ref.Cost, ref.Materialized)
		}
	}
	if ref.Telemetry.OracleCalls != 28 || ref.Telemetry.BCCalls != 30 {
		t.Errorf("LazyGreedy on BQ2 spent %d oracle calls / %d bestCost calls, pinned 28 / 30", ref.Telemetry.OracleCalls, ref.Telemetry.BCCalls)
	}
}
