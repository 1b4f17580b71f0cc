package core

import (
	"sort"
	"time"

	"repro/internal/submod"
)

// Telemetry reports how a run spent its budget, phase by phase. The JSON
// tags are the wire contract of the serving front end (internal/server):
// durations marshal as nanoseconds, Stopped as its String form.
type Telemetry struct {
	OracleCalls  int     `json:"oracle_calls"`   // memoized-distinct mb(S) evaluations
	BCCalls      int     `json:"bc_calls"`       // bestCost invocations during the run
	CacheHits    int     `json:"cache_hits"`     // lookups served by the run's L1
	SharedHits   int     `json:"shared_hits"`    // lookups served by the SharedCache (L2) during the run
	ComputedKeys int     `json:"computed_keys"`  // fresh (group, order, mask) computations
	CacheHitRate float64 `json:"cache_hit_rate"` // (CacheHits+SharedHits) / (hits + ComputedKeys)
	// SharedOracleHits counts distinct mb(S) evaluations served from the
	// session SharedCache's cross-run oracle memo instead of the bestCost
	// oracle: the warm-start savings of this run. OracleCalls counts only
	// the evaluations that actually ran, so OracleCalls+SharedOracleHits is
	// what the same run would have cost against a cold cache.
	SharedOracleHits int `json:"shared_oracle_hits"`
	Rounds           int `json:"rounds"` // completed greedy rounds (selections for lazy)
	Pruned           int `json:"pruned"` // Section 5.1 permanent prunes
	// Stale counts stale-bound re-evaluations the lazy scan performed;
	// Reused counts marginals carried exactly across a selection by the
	// dirty-candidate tracking (work the scan provably avoided). Both are
	// zero for eager strategies. See submod.Result.
	Stale  int `json:"stale"`
	Reused int `json:"reused"`
	// Stopped records why the run ended early; StopNone for a complete
	// run. A stopped run's materialization set is the deterministic
	// best-so-far selection of the completed rounds.
	Stopped submod.StopReason `json:"stopped"`
	// SetupTime covers bc(∅) and, for the marginal strategies, the
	// Proposition 1 decomposition; SearchTime the greedy rounds;
	// FinalizeTime the pricing of the chosen set. They sum to TotalTime up
	// to bookkeeping noise.
	SetupTime    time.Duration `json:"setup_ns"`
	SearchTime   time.Duration `json:"search_ns"`
	FinalizeTime time.Duration `json:"finalize_ns"`
	TotalTime    time.Duration `json:"total_ns"`
}

// counters lists the additive fields of the telemetry: the counts and times
// that divide among the members of a shared run (Split). This is the one place they are
// named; a field added to Telemetry goes here or on the not-additive list of
// the test that checks the two cover the struct.
func (t *Telemetry) counters() ([]*int, []*time.Duration) {
	return []*int{
			&t.OracleCalls, &t.BCCalls, &t.CacheHits, &t.SharedHits, &t.ComputedKeys,
			&t.SharedOracleHits, &t.Rounds, &t.Pruned, &t.Stale, &t.Reused,
		}, []*time.Duration{
			&t.SetupTime, &t.SearchTime, &t.FinalizeTime, &t.TotalTime,
		}
}

// setHitRate derives CacheHitRate from the counters it is a ratio of.
func (t *Telemetry) setHitRate() {
	t.CacheHitRate = 0
	if n := t.CacheHits + t.SharedHits + t.ComputedKeys; n > 0 {
		t.CacheHitRate = float64(t.CacheHits+t.SharedHits) / float64(n)
	}
}

// Split apportions the telemetry into len(weights) shares that conserve
// exactly: every additive field satisfies Σ shares == total, using
// largest-remainder apportionment (ties break to the lower index), so the
// split is deterministic and no count is ever lost or duplicated — the
// invariant the batched serving layer's conservation audits rely on. Stopped
// is copied to every share; CacheHitRate is recomputed per share from its own
// counters.
func (t Telemetry) Split(weights []int) []Telemetry {
	if len(weights) == 0 {
		return nil
	}
	out := make([]Telemetry, len(weights))
	type fields struct {
		ints  []*int
		times []*time.Duration
	}
	parts := make([]fields, len(out))
	for i := range out {
		parts[i].ints, parts[i].times = out[i].counters()
	}
	ints, times := t.counters()
	for k, p := range ints {
		for i, v := range apportion(int64(*p), weights) {
			*parts[i].ints[k] = int(v)
		}
	}
	for k, p := range times {
		for i, v := range apportion(int64(*p), weights) {
			*parts[i].times[k] = time.Duration(v)
		}
	}
	for i := range out {
		out[i].Stopped = t.Stopped
		out[i].setHitRate()
	}
	return out
}

// apportion splits total into len(weights) integer parts proportional to
// the weights with Σ parts == total exactly (largest-remainder method,
// ties to the lower index). Non-positive weight sums degrade to "all to
// index 0"; negative totals split as the negated positive split.
func apportion(total int64, weights []int) []int64 {
	n := len(weights)
	out := make([]int64, n)
	if n == 0 || total == 0 {
		return out
	}
	if total < 0 {
		neg := apportion(-total, weights)
		for i, v := range neg {
			out[i] = -v
		}
		return out
	}
	var wsum int64
	for _, w := range weights {
		if w > 0 {
			wsum += int64(w)
		}
	}
	if wsum <= 0 {
		out[0] = total
		return out
	}
	type rem struct {
		idx int
		r   int64
	}
	rems := make([]rem, n)
	var given int64
	for i, w := range weights {
		if w < 0 {
			w = 0
		}
		q := total * int64(w) / wsum
		out[i] = q
		given += q
		rems[i] = rem{idx: i, r: total * int64(w) % wsum}
	}
	sort.Slice(rems, func(a, b int) bool {
		if rems[a].r != rems[b].r {
			return rems[a].r > rems[b].r
		}
		return rems[a].idx < rems[b].idx
	})
	for k := int64(0); k < total-given; k++ {
		out[rems[k%int64(n)].idx]++
	}
	return out
}

// Work is the deterministic part of a run's telemetry: the counters that
// are a pure function of (batch, strategy, budgets, warm-oracle state) —
// how much search the run did and why it stopped. It is a Telemetry whose
// other fields read zero, because they depend on the machine and the
// schedule: the phase times, and the cache-effect counters CacheHits /
// SharedHits / ComputedKeys / CacheHitRate, which vary with which worker
// priced which candidate set, and when (BestCostBatchCtx hands indices out
// through a shared counter, and its workers share the run's L1). Contracts of the form "these two runs did the
// same thing" — a served request ≡ a direct Session call, a lane of one ≡ a
// solo request — are stated over Work, never over the whole struct.
type Work Telemetry

// Work projects the telemetry onto its deterministic counters.
func (t Telemetry) Work() Work {
	_, times := t.counters()
	for _, p := range times {
		*p = 0
	}
	t.CacheHits, t.SharedHits, t.ComputedKeys, t.CacheHitRate = 0, 0, 0, 0
	return Work(t)
}
