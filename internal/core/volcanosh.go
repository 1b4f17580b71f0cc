package core

import (
	"cmp"
	"context"
	"slices"
	"time"

	"repro/internal/memo"
	"repro/internal/physical"
	"repro/internal/submod"
	"repro/internal/volcano"
)

// runVolcanoSH implements the Volcano-SH baseline from the MQO lineage
// (Subramanian & Venkataraman's transient views, Roy et al.'s Volcano-SH):
// optimize every query independently first, then share only the
// subexpressions that happen to appear in those locally optimal plans —
// a cheap post-optimization phase that "can be highly suboptimal" because
// it never steers plan choice toward sharing. It provides the middle
// baseline between stand-alone Volcano and full cost-based MQO. Volcano-SH
// has no submod oracle, so its bestCost probes are counted directly against
// the call budget, the candidate keep-loop checks the context between
// probes, and a panic in a probe stops the run with StopPanic.
func runVolcanoSH(ctx context.Context, opt *volcano.Optimizer, cfg Config) Result {
	mt := startMeter(opt)
	base, ok := bestCost(opt, physical.NodeSet{})
	if !ok {
		return mt.faulted(VolcanoSH, opt.Searcher.TakeFault())
	}
	plan := opt.Plan(physical.NodeSet{})
	setupEnd := time.Now()

	// Count how many times each group is computed across the locally
	// optimal plan trees.
	uses := map[memo.GroupID]int{}
	var walk func(n *physical.PlanNode)
	walk = func(n *physical.PlanNode) {
		uses[n.Group]++
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, q := range plan.Queries {
		walk(q)
	}

	// Candidates: shareable groups computed at least twice in the
	// locally optimal plans. Greedily keep the ones that actually
	// reduce bestCost when materialized (cheapest check first by use
	// count, descending).
	var cands []memo.GroupID
	for _, id := range opt.Shareable() {
		if uses[id] >= 2 {
			cands = append(cands, id)
		}
	}
	sortByUsesDesc(cands, uses)
	chosen := opt.NewNodeSet()
	cur := base
	calls, rounds := 0, 0
	stopped := submod.StopNone
	var fault error
	for _, id := range cands {
		if err := ctx.Err(); err != nil {
			stopped = submod.CtxStopReason(err)
			break
		}
		if cfg.hasMaxCalls && calls >= cfg.maxCalls {
			stopped = submod.StopCallBudget
			break
		}
		calls++
		rounds++
		c, ok := bestCost(opt, chosen.With(id))
		if !ok {
			stopped, fault = submod.StopPanic, opt.Searcher.TakeFault()
			break
		}
		if c < cur {
			chosen.Add(id)
			cur = c
		}
		if cfg.Progress != nil {
			cfg.Progress(submod.Progress{
				Algorithm:   "Volcano-SH",
				Round:       rounds,
				Selected:    chosen.Len(),
				Remaining:   len(cands) - rounds,
				OracleCalls: calls,
				Best:        base - cur,
			})
		}
	}
	searchEnd := time.Now()
	return mt.finish(Result{
		Strategy:     VolcanoSH,
		Materialized: chosen.Groups(),
		VolcanoCost:  base,
		OracleCalls:  calls,
		Fault:        fault,
		Telemetry:    Telemetry{Rounds: rounds, Stopped: stopped},
	}, setupEnd, searchEnd)
}

// sortByUsesDesc orders candidates by use count descending, ties by group
// id ascending.
func sortByUsesDesc(ids []memo.GroupID, uses map[memo.GroupID]int) {
	slices.SortFunc(ids, func(a, b memo.GroupID) int {
		return cmp.Or(cmp.Compare(uses[b], uses[a]), cmp.Compare(a, b))
	})
}
