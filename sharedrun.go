package repro

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/logical"
	"repro/internal/memo"
	"repro/internal/physical"
)

// Attribution is one batch member's exact slice of a shared run: which of
// the chosen materializations serve its queries, what the run cost it,
// and its conserving share of the run's telemetry. The continuous-batching
// serving layer turns each Attribution into one client response.
//
// The cost split is exact, not estimated: bc(S) decomposes as
//
//	Σ_{s∈S} (compute(s) + matWriteCost(s))  +  Σ_q useCost(root_q)
//
// and every use-cost term belongs to exactly one member. Each
// materialization's compute+write cost is divided evenly among the
// members whose query cones contain it (the last member absorbs the
// division remainder, so the shares re-sum to the node's cost exactly);
// SharedCredit is the part of those nodes' costs the other members paid.
// Summing Cost over all members therefore reproduces the run's bc(S) up
// to float addition reordering, and summing Telemetry reproduces the
// run's Telemetry field-for-field exactly.
type Attribution struct {
	// QueryOffset / QueryCount locate the member's queries inside the
	// combined batch (and the combined RunResult.Plan.Queries).
	QueryOffset int
	QueryCount  int
	// Materialized lists the chosen nodes reachable from this member's
	// queries, ascending; Set is the same slice as a NodeSet.
	Materialized []memo.GroupID
	Set          physical.NodeSet
	// Cost is the member's attributed share of bc(S): its queries' use
	// costs plus its share of its materializations' compute+write costs.
	// VolcanoCost is the member's share of bc(∅) (its queries' unshared
	// costs — no split needed), and Benefit = VolcanoCost − Cost.
	Cost        float64
	VolcanoCost float64
	Benefit     float64
	// SharedCredit is the compute+write cost of this member's attributed
	// materializations that other members' shares covered: the subsidy it
	// received from being batched. A member's attributed benefit can fall
	// below its solo benefit by at most this credit.
	SharedCredit float64
	// Telemetry is the member's conserving share of the run telemetry
	// (SplitTelemetry with query-count weights).
	Telemetry Telemetry
}

// SharedResult is the outcome of one OptimizeShared call: the combined
// run plus one Attribution per member group, in input order.
type SharedResult struct {
	*RunResult
	Attributions []Attribution
}

// OptimizeShared optimizes several members' batches as one combined DAG —
// cross-member common subexpressions unify and materializations are
// shared — and attributes the result back per member. It is the session's
// one run entry point: Optimize is the single-group case, and the server
// serves every request as a lane of ≥ 1 groups through it. Cancellation,
// budgets, faults and session stats count the whole shared run as one
// batch. WithResume is accepted for a single group only: a checkpoint
// binds to one search space, and only a lone group's search space is the
// one its caller can name again.
func (s *Session) OptimizeShared(ctx context.Context, groups []*logical.Batch, opts ...Option) (*SharedResult, error) {
	if len(groups) == 0 {
		return nil, errors.New("repro: OptimizeShared with no member groups")
	}
	cfg := s.mergeConfig(opts)
	if cfg.resume != nil && len(groups) > 1 {
		return nil, errors.New("repro: resume is not supported for runs shared by several groups")
	}
	combined := &logical.Batch{}
	counts := make([]int, len(groups))
	for i, g := range groups {
		if g == nil || len(g.Queries) == 0 {
			return nil, fmt.Errorf("repro: member group %d is empty", i)
		}
		counts[i] = len(g.Queries)
		combined.Queries = append(combined.Queries, g.Queries...)
	}
	rr, err := s.runBatch(ctx, combined, cfg)
	if err != nil {
		return nil, err
	}
	return &SharedResult{RunResult: rr, Attributions: attributeShared(rr, counts)}, nil
}

// attributeShared slices a completed shared run into per-member
// attributions. A single member owns the whole run: its attribution is the
// run's own numbers.
func attributeShared(rr *RunResult, counts []int) []Attribution {
	offsets := make([]int, len(counts))
	total := 0
	for i, c := range counts {
		offsets[i] = total
		total += c
	}
	if len(counts) == 1 {
		return []Attribution{{
			QueryOffset:  0,
			QueryCount:   counts[0],
			Materialized: rr.Materialized,
			Set:          rr.Set,
			Cost:         rr.Cost,
			VolcanoCost:  rr.VolcanoCost,
			Benefit:      rr.Benefit,
			Telemetry:    rr.Telemetry,
		}}
	}

	sr := rr.opt.Searcher
	bdS := sr.CostBreakdown(rr.Set)
	bd0 := sr.CostBreakdown(physical.NodeSet{})
	owner := make([]int, total) // member index per combined query root
	for mi, off := range offsets {
		for q := 0; q < counts[mi]; q++ {
			owner[off+q] = mi
		}
	}

	attrs := make([]Attribution, len(counts))
	for mi := range attrs {
		attrs[mi].QueryOffset = offsets[mi]
		attrs[mi].QueryCount = counts[mi]
		attrs[mi].Set = sr.NewNodeSet()
	}
	for ri, u := range bdS.RootUse {
		attrs[owner[ri]].Cost += u
	}
	for ri, u := range bd0.RootUse {
		attrs[owner[ri]].VolcanoCost += u
	}
	members := make([]int, 0, len(counts)) // scratch: distinct owners per node
	for j, g := range bdS.MatGroups {
		nodeCost := bdS.MatCosts[j]
		members = members[:0]
		for _, ri := range sr.RootsReaching(g) {
			mi := owner[ri]
			if len(members) == 0 || members[len(members)-1] != mi {
				members = append(members, mi)
			}
		}
		if len(members) == 0 {
			// Unreachable: every shareable node lies in some query cone.
			members = append(members, 0)
		}
		q := nodeCost / float64(len(members))
		assigned := 0.0
		for k, mi := range members {
			share := q
			if k == len(members)-1 {
				share = nodeCost - assigned // exact conservation per node
			}
			assigned += share
			attrs[mi].Cost += share
			attrs[mi].SharedCredit += nodeCost - share
			attrs[mi].Materialized = append(attrs[mi].Materialized, g)
			attrs[mi].Set.Add(g)
		}
	}
	shares := SplitTelemetry(rr.Telemetry, counts)
	for mi := range attrs {
		attrs[mi].Benefit = attrs[mi].VolcanoCost - attrs[mi].Cost
		attrs[mi].Telemetry = shares[mi]
	}
	return attrs
}

// SplitTelemetry apportions one run's telemetry into len(weights) shares
// that conserve exactly: every integer counter and duration satisfies
// Σ shares == total, using largest-remainder apportionment (ties break to
// the lower index), so the split is deterministic and no count is ever
// lost or duplicated — the invariant the batched serving layer's
// conservation audits rely on. Stopped is copied to every share;
// CacheHitRate is recomputed per share from its own counters.
func SplitTelemetry(t Telemetry, weights []int) []Telemetry {
	n := len(weights)
	if n == 0 {
		return nil
	}
	out := make([]Telemetry, n)
	splitInt := func(total int, set func(i int, v int)) {
		vals := apportion(int64(total), weights)
		for i, v := range vals {
			set(i, int(v))
		}
	}
	splitInt(t.OracleCalls, func(i, v int) { out[i].OracleCalls = v })
	splitInt(t.BCCalls, func(i, v int) { out[i].BCCalls = v })
	splitInt(t.CacheHits, func(i, v int) { out[i].CacheHits = v })
	splitInt(t.SharedHits, func(i, v int) { out[i].SharedHits = v })
	splitInt(t.ComputedKeys, func(i, v int) { out[i].ComputedKeys = v })
	splitInt(t.SharedOracleHits, func(i, v int) { out[i].SharedOracleHits = v })
	splitInt(t.Rounds, func(i, v int) { out[i].Rounds = v })
	splitInt(t.Pruned, func(i, v int) { out[i].Pruned = v })
	splitInt(t.Stale, func(i, v int) { out[i].Stale = v })
	splitInt(t.Reused, func(i, v int) { out[i].Reused = v })
	setup := apportion(int64(t.SetupTime), weights)
	search := apportion(int64(t.SearchTime), weights)
	finalize := apportion(int64(t.FinalizeTime), weights)
	totalT := apportion(int64(t.TotalTime), weights)
	for i := range out {
		out[i].SetupTime = time.Duration(setup[i])
		out[i].SearchTime = time.Duration(search[i])
		out[i].FinalizeTime = time.Duration(finalize[i])
		out[i].TotalTime = time.Duration(totalT[i])
		out[i].Stopped = t.Stopped
		if denom := out[i].CacheHits + out[i].SharedHits + out[i].ComputedKeys; denom > 0 {
			out[i].CacheHitRate = float64(out[i].CacheHits+out[i].SharedHits) / float64(denom)
		}
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
