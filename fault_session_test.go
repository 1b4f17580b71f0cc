package repro

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/logical"
	"repro/internal/tpcd"
	"repro/internal/workload"
)

// TestSessionFaultErrorContract: an injected worker panic inside Optimize
// surfaces as a *FaultError (process intact), contributes only to the
// Faults stat, and — when the run had committed state — carries a
// checkpoint that a FRESH session resumes to the uninterrupted result.
func TestSessionFaultErrorContract(t *testing.T) {
	withProcs(t, 4)
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
			WithStrategy(MarginalGreedy))
		restore()
		if err == nil {
			if hit <= int64(ref.Telemetry.BCCalls) {
				t.Fatalf("hit %d of %d: no error from faulted run", hit, ref.Telemetry.BCCalls)
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
// escaping Optimize. The run's evaluations by hit: bc(∅); round 1, every
// candidate and f(∅) in one batch; the one-candidate rounds and selections;
// last, the pricing of the chosen set, whose fault carries no checkpoint.
func TestSessionFaultInOneCandidateRound(t *testing.T) {
	lazy := WithStrategy(core.LazyGreedyStrategy)
	counting := faultinject.NewSchedule(1)
	restore := faultinject.Enable(counting)
	ref, err := newTestSession(t).Optimize(context.Background(), tpcd.BQ(2), lazy)
	restore()
	if err != nil {
		t.Fatal(err)
	}
	firstPass := 1 + int64(len(ref.opt.Shareable())) + 1 // bc(∅), then round 1
	evals := counting.Hits(faultinject.OracleEval)
	if evals != int64(ref.Telemetry.BCCalls) {
		t.Fatalf("%d evaluations passed the injection point of %d bestCost calls", evals, ref.Telemetry.BCCalls)
	}
	if evals <= firstPass+1 {
		t.Fatalf("%d evaluations passed the injection point, all but the pricing in the first pass of %d: one-candidate rounds bypass it", evals, firstPass)
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
		if fe.Telemetry.Stopped != StopPanic || (fe.Checkpoint == nil) != (n == evals) {
			t.Fatalf("evaluation %d of %d: stopped %v, checkpoint %v", n, evals, fe.Telemetry.Stopped, fe.Checkpoint)
		}
		if n == evals {
			continue
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

// TestFaultEveryEvaluationIsolated: every bestCost call a servable strategy
// makes goes through the oracle's batch path — it passes the OracleEval
// injection point (one hit per Telemetry.BCCalls) and is panic-isolated — so
// a panic at any of them comes out of Optimize as a *FaultError. What the
// fault carries follows from where it hit: in setup (bc(∅), and the
// decomposition of the marginal strategies) or in the pricing of the chosen
// set (the last hit) no checkpoint; inside a resumable strategy's search a
// checkpoint that a fresh session resumes to the uninterrupted result. A
// faulted run hands no worker to the session's free list.
func TestFaultEveryEvaluationIsolated(t *testing.T) {
	batches := map[string]*logical.Batch{
		"gen6": workload.MustGenerate(workload.DefaultSpec(6, 0.5)),
		"gen8": workload.MustGenerate(workload.DefaultSpec(8, 0.25)),
	}
	for i := 1; i <= 6; i++ {
		batches[fmt.Sprintf("BQ%d", i)] = tpcd.BQ(i)
	}
	ctx := context.Background()
	for name, batch := range batches {
		for _, strat := range []Strategy{core.Volcano, core.Greedy, core.LazyGreedyStrategy,
			core.MarginalGreedy, core.LazyMarginalGreedy, core.MaterializeAll, core.VolcanoSH} {
			counting := faultinject.NewSchedule(0)
			restore := faultinject.Enable(counting)
			ref, err := newTestSession(t).Optimize(ctx, batch, WithStrategy(strat))
			restore()
			if err != nil {
				t.Fatalf("%s %v: %v", name, strat, err)
			}
			calls := int64(ref.Telemetry.BCCalls)
			if hits := counting.Hits(faultinject.OracleEval); hits != calls {
				t.Fatalf("%s %v: %d of %d bestCost calls passed the injection point", name, strat, hits, calls)
			}
			setup := int64(1) // bc(∅)
			if strat == core.MarginalGreedy || strat == core.LazyMarginalGreedy {
				setup += int64(len(ref.opt.Shareable())) + 1 // f(U), every f(U ∖ {e})
			}
			for hit := int64(1); hit <= calls; hit++ {
				if testing.Short() && hit%5 != 1 && hit != calls {
					continue
				}
				sess := newTestSession(t)
				restore := faultinject.Enable(faultinject.NewSchedule(hit,
					faultinject.Rule{Point: faultinject.OracleEval, N: hit, Panic: true}))
				r, err := func() (r *RunResult, err error) {
					defer func() {
						if p := recover(); p != nil {
							t.Fatalf("%s %v hit %d: a panic escaped Optimize: %v", name, strat, hit, p)
						}
					}()
					return sess.Optimize(ctx, batch, WithStrategy(strat))
				}()
				restore()
				var fe *FaultError
				if r != nil || !errors.As(err, &fe) || fe.Telemetry.Stopped != StopPanic {
					t.Fatalf("%s %v hit %d of %d: result %v, error %v; want a *FaultError alone", name, strat, hit, calls, r, err)
				}
				if n := sess.cache.FreeWorkers(); n != 0 {
					t.Fatalf("%s %v hit %d: the faulted run pooled %d workers", name, strat, hit, n)
				}
				inSearch := strat.Resumable() && hit > setup && hit < calls
				if (fe.Checkpoint != nil) != inSearch {
					t.Fatalf("%s %v hit %d of %d (setup %d): checkpoint %v, want one %t", name, strat, hit, calls, setup, fe.Checkpoint, inSearch)
				}
				if !inSearch {
					continue
				}
				got, err := newTestSession(t).Optimize(ctx, batch, WithResume(fe.Checkpoint))
				if err != nil {
					t.Fatalf("%s %v hit %d: resume on a fresh session: %v", name, strat, hit, err)
				}
				if got.Cost != ref.Cost || !slices.Equal(got.Materialized, ref.Materialized) {
					t.Fatalf("%s %v hit %d: resumed to cost %v set %v, uninterrupted %v %v", name, strat, hit, got.Cost, got.Materialized, ref.Cost, ref.Materialized)
				}
			}
		}
	}
}
