package core

import (
	"context"

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
// the call budget and the candidate keep-loop checks the context between
// probes.
func runVolcanoSH(ctx context.Context, opt *volcano.Optimizer, cfg Config) Result {
	start := nowFunc()
	bc0, hit0, key0 := opt.Searcher.BCCalls, opt.Searcher.CacheHits, opt.Searcher.ComputedKey
	base := opt.BestCost(physical.NodeSet{})
	plan := opt.Plan(physical.NodeSet{})
	setupEnd := nowFunc()

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
		if c := opt.BestCost(chosen.With(id)); c < cur {
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
	searchEnd := nowFunc()

	res := Result{
		Strategy:     VolcanoSH,
		Materialized: chosen.Groups(),
		Set:          chosen,
		VolcanoCost:  base,
		OracleCalls:  calls,
	}
	res.Cost = opt.BestCost(res.Set)
	res.Benefit = res.VolcanoCost - res.Cost
	end := nowFunc()
	res.OptTime = end.Sub(start)
	res.Telemetry = Telemetry{
		OracleCalls:  calls,
		BCCalls:      opt.Searcher.BCCalls - bc0,
		CacheHits:    opt.Searcher.CacheHits - hit0,
		ComputedKeys: opt.Searcher.ComputedKey - key0,
		Rounds:       rounds,
		Stopped:      stopped,
		SetupTime:    setupEnd.Sub(start),
		SearchTime:   searchEnd.Sub(setupEnd),
		FinalizeTime: end.Sub(searchEnd),
		TotalTime:    end.Sub(start),
	}
	res.Telemetry.fillHitRate()
	return res
}

func sortByUsesDesc(ids []memo.GroupID, uses map[memo.GroupID]int) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0; j-- {
			a, b := ids[j-1], ids[j]
			if uses[b] > uses[a] || (uses[b] == uses[a] && b < a) {
				ids[j-1], ids[j] = b, a
			} else {
				break
			}
		}
	}
}
