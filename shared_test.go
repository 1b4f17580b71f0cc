package repro

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/logical"
	"repro/internal/tpcd"
	"repro/internal/workload"
)

// memberBatches generates three member batches (as three independent
// requests would) from one workload spec, split round-robin so members
// share structure without being identical.
func memberBatches(t *testing.T, shape workload.Shape, sharing float64, seed int64) []*logical.Batch {
	t.Helper()
	spec := workload.DefaultSpec(12, sharing)
	spec.Shape = shape
	spec.Seed = seed
	batch, err := workload.Generate(spec)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	groups := []*logical.Batch{{}, {}, {}}
	for i, q := range batch.Queries {
		groups[i%3].Queries = append(groups[i%3].Queries, q)
	}
	return groups
}

// TestBatchedVsSoloParity is the batched-vs-solo property pass: for
// generated workloads across shapes and sharing regimes, every member's
// attributed slice of a coalesced run must be cost-valid (components
// conserve against the batch totals exactly), its benefit must be no
// worse than its solo-optimized benefit minus the shared-node credit it
// received, and attribution must be deterministic for a fixed seed.
func TestBatchedVsSoloParity(t *testing.T) {
	for _, shape := range []workload.Shape{workload.Star, workload.Chain, workload.Snowflake} {
		for _, sharing := range []float64{0.25, 0.75} {
			t.Run(fmt.Sprintf("%v_%.2f", shape, sharing), func(t *testing.T) {
				groups := memberBatches(t, shape, sharing, 42)

				shared := newTestSession(t)
				sres, err := shared.OptimizeShared(context.Background(), groups)
				if err != nil {
					t.Fatalf("OptimizeShared: %v", err)
				}
				if len(sres.Attributions) != len(groups) {
					t.Fatalf("%d attributions for %d members", len(sres.Attributions), len(groups))
				}

				// Conservation: attributed costs re-sum to the batch run's
				// totals, telemetry conserves field-for-field.
				var sumCost, sumVolcano, sumBenefit float64
				var sumTel Telemetry
				matCounts := map[int]int{}
				for mi, a := range sres.Attributions {
					if a.QueryCount != len(groups[mi].Queries) {
						t.Fatalf("member %d: %d queries attributed, want %d", mi, a.QueryCount, len(groups[mi].Queries))
					}
					if a.Cost < 0 || a.VolcanoCost < 0 {
						t.Fatalf("member %d: negative attributed cost %v/%v", mi, a.Cost, a.VolcanoCost)
					}
					sumCost += a.Cost
					sumVolcano += a.VolcanoCost
					sumBenefit += a.Benefit
					addTelemetry(&sumTel, a.Telemetry)
					for _, g := range a.Materialized {
						if !sres.Set.Has(g) {
							t.Fatalf("member %d attributed node %d outside the chosen set", mi, g)
						}
						if !a.Set.Has(g) {
							t.Fatalf("member %d: Materialized and Set disagree on %d", mi, g)
						}
						// The node must actually serve one of the member's queries.
						serves := false
						for _, ri := range sres.opt.Searcher.RootsReaching(g) {
							if ri >= a.QueryOffset && ri < a.QueryOffset+a.QueryCount {
								serves = true
								break
							}
						}
						if !serves {
							t.Fatalf("member %d attributed node %d that serves none of its queries", mi, g)
						}
						matCounts[int(g)]++
					}
				}
				// Every chosen node is attributed to at least one member and
				// never duplicated within one member.
				for _, g := range sres.Materialized {
					if matCounts[int(g)] == 0 {
						t.Fatalf("chosen node %d attributed to no member", g)
					}
				}
				if !almostEqual(sumCost, sres.Cost) {
					t.Fatalf("Σ member cost %v != batch bc(S) %v", sumCost, sres.Cost)
				}
				if !almostEqual(sumVolcano, sres.VolcanoCost) {
					t.Fatalf("Σ member volcano %v != batch bc(∅) %v", sumVolcano, sres.VolcanoCost)
				}
				if !almostEqual(sumBenefit, sres.Benefit) {
					t.Fatalf("Σ member benefit %v != batch benefit %v", sumBenefit, sres.Benefit)
				}
				runTel := sres.Telemetry
				runTel.CacheHitRate = 0 // a rate, recomputed per share, not summable
				if sumTel != runTel {
					t.Fatalf("telemetry shares do not conserve:\n  Σ   %+v\n  run %+v", sumTel, runTel)
				}

				// Per-member floor: batching may shift shared build costs
				// onto a member, but never by more than the credit it
				// received for nodes others paid toward.
				for mi, a := range sres.Attributions {
					solo := newTestSession(t)
					srr, err := solo.Optimize(context.Background(), groups[mi])
					if err != nil {
						t.Fatalf("solo member %d: %v", mi, err)
					}
					if a.Benefit+a.SharedCredit < srr.Benefit-1e-6*absf(srr.Benefit)-1e-9 {
						t.Fatalf("member %d: attributed benefit %v + credit %v < solo benefit %v",
							mi, a.Benefit, a.SharedCredit, srr.Benefit)
					}
				}

				// Determinism: a repeat shared run on a fresh session
				// attributes identically.
				shared2 := newTestSession(t)
				sres2, err := shared2.OptimizeShared(context.Background(), memberBatches(t, shape, sharing, 42))
				if err != nil {
					t.Fatalf("repeat OptimizeShared: %v", err)
				}
				for mi := range sres.Attributions {
					a, b := sres.Attributions[mi], sres2.Attributions[mi]
					if a.Cost != b.Cost || a.VolcanoCost != b.VolcanoCost || a.Benefit != b.Benefit || a.SharedCredit != b.SharedCredit {
						t.Fatalf("member %d attribution not deterministic: %+v vs %+v", mi, a, b)
					}
					if len(a.Materialized) != len(b.Materialized) {
						t.Fatalf("member %d set not deterministic", mi)
					}
					for i := range a.Materialized {
						if a.Materialized[i] != b.Materialized[i] {
							t.Fatalf("member %d set not deterministic", mi)
						}
					}
				}
			})
		}
	}
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// addTelemetry accumulates the integer/duration fields used by the
// conservation checks; CacheHitRate is recomputed, Stopped must agree.
func addTelemetry(dst *Telemetry, t Telemetry) {
	dst.OracleCalls += t.OracleCalls
	dst.BCCalls += t.BCCalls
	dst.CacheHits += t.CacheHits
	dst.SharedHits += t.SharedHits
	dst.ComputedKeys += t.ComputedKeys
	dst.Rounds += t.Rounds
	dst.Pruned += t.Pruned
	dst.Stale += t.Stale
	dst.Reused += t.Reused
	dst.SetupTime += t.SetupTime
	dst.SearchTime += t.SearchTime
	dst.FinalizeTime += t.FinalizeTime
	dst.TotalTime += t.TotalTime
	dst.Stopped = t.Stopped
}

// TestBatchedSingletonBitIdentical pins the single-group case: a shared
// run with one member is bit-identical to an Optimize call (which is that
// run, minus the attribution), so a server that catches a lone request in
// a lane serves exactly what a solo request gets.
func TestBatchedSingletonBitIdentical(t *testing.T) {
	batch := tpcd.BQ(2)
	solo := newTestSession(t)
	want, err := solo.Optimize(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	shared := newTestSession(t)
	got, err := shared.OptimizeShared(context.Background(), []*logical.Batch{batch})
	if err != nil {
		t.Fatal(err)
	}
	a := got.Attributions[0]
	if a.Cost != want.Cost || a.VolcanoCost != want.VolcanoCost || a.Benefit != want.Benefit {
		t.Fatalf("singleton attribution %v/%v/%v != solo %v/%v/%v",
			a.Cost, a.VolcanoCost, a.Benefit, want.Cost, want.VolcanoCost, want.Benefit)
	}
	if a.SharedCredit != 0 {
		t.Fatalf("singleton shared credit %v != 0", a.SharedCredit)
	}
	if len(a.Materialized) != len(want.Materialized) {
		t.Fatalf("singleton set %v != solo %v", a.Materialized, want.Materialized)
	}
	for i := range a.Materialized {
		if a.Materialized[i] != want.Materialized[i] {
			t.Fatalf("singleton set %v != solo %v", a.Materialized, want.Materialized)
		}
	}
	// Durations are wall-clock and the cache-effect counters depend on the
	// worker schedule; the deterministic work counters must be
	// bit-identical.
	if at, wt := a.Telemetry.Work(), want.Telemetry.Work(); at != wt {
		t.Fatalf("singleton work differs:\n  %+v\n  %+v", at, wt)
	}
}

// TestBatchedSharedRejectsResume pins the API contract: a checkpoint binds
// to one search space, so a run shared by several groups cannot resume.
// (A single group resumes through OptimizeShared — that is Optimize's own
// path, pinned by TestSessionResumeAfterCallBudget.)
func TestBatchedSharedRejectsResume(t *testing.T) {
	sess := newTestSession(t)
	ref, err := sess.Optimize(context.Background(), tpcd.BQ(3))
	if err != nil {
		t.Fatal(err)
	}
	stopped, err := sess.Optimize(context.Background(), tpcd.BQ(3), WithOracleCallBudget(ref.Telemetry.OracleCalls/2))
	if err != nil || stopped.Checkpoint == nil {
		t.Fatalf("half budget left no checkpoint: err=%v stopped=%v", err, stopped.Telemetry.Stopped)
	}
	_, err = sess.OptimizeShared(context.Background(), []*logical.Batch{tpcd.BQ(3), tpcd.BQ(1)},
		WithResume(stopped.Checkpoint))
	if err == nil || errors.Is(err, ErrResumeMismatch) {
		t.Fatalf("two-group resume: err=%v, want an up-front rejection", err)
	}
}

// The oracle-savings gate for coalescing lives at the serving layer
// (internal/server TestBatchCoalesceOracleSavings): identical member
// batches are deduplicated by structural fingerprint before the shared
// run, so eight identical clients cost one solo run, not eight.
