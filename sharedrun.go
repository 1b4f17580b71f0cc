package repro

import (
	"context"
	"errors"
	"fmt"

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
	cfg := s.defaults // per-call options layer over the session's
	for _, o := range opts {
		o(&cfg)
	}
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
	return s.runBatch(ctx, combined, counts, cfg)
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
// that conserve exactly (Telemetry.Split).
func SplitTelemetry(t Telemetry, weights []int) []Telemetry { return t.Split(weights) }
