package core

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/memo"
	"repro/internal/physical"
	"repro/internal/submod"
)

func TestVolcanoSHBetweenVolcanoAndMQO(t *testing.T) {
	// The lineage's ordering: Volcano ≥ Volcano-SH ≥ full MQO (Greedy /
	// MarginalGreedy), since Volcano-SH only shares what the locally
	// optimal plans already expose.
	opt := bq2Optimizer(t)
	v := RunWith(context.Background(), opt, Volcano, Config{})
	sh := RunWith(context.Background(), opt, VolcanoSH, Config{})
	g := RunWith(context.Background(), opt, Greedy, Config{})
	if sh.Cost > v.Cost+1e-6 {
		t.Errorf("Volcano-SH %.1f worse than Volcano %.1f", sh.Cost, v.Cost)
	}
	if g.Cost > sh.Cost+1e-6 {
		t.Errorf("full MQO Greedy %.1f worse than Volcano-SH %.1f", g.Cost, sh.Cost)
	}
	t.Logf("volcano=%.0f volcano-sh=%.0f (%d nodes) greedy=%.0f (%d nodes)",
		v.Cost, sh.Cost, len(sh.Materialized), g.Cost, len(g.Materialized))
}

func TestVolcanoSHOnlyPicksSharedNodes(t *testing.T) {
	// Everything Volcano-SH materializes must be computed at least twice
	// in the locally optimal plan trees.
	opt := newExample1Optimizer(t)
	sh := RunWith(context.Background(), opt, VolcanoSH, Config{})
	plan := opt.Plan(physical.NodeSet{})
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
	for _, id := range sh.Materialized {
		if uses[id] < 2 {
			t.Errorf("Volcano-SH materialized group %d used %d times in the local plans", id, uses[id])
		}
	}
	if sh.Benefit <= 0 {
		t.Error("Volcano-SH found no benefit on Example 1 (σB⋈C appears in both local plans)")
	}
}

func TestVolcanoSHStrategyString(t *testing.T) {
	if VolcanoSH.String() != "Volcano-SH" {
		t.Errorf("got %q", VolcanoSH.String())
	}
}

// TestVolcanoSHCallBudgetEveryProbe sweeps Volcano-SH's call budget over
// every probe of the full run, on BQ1–6: a budget of n probes stops after
// exactly n (one oracle call and one round each) with StopCallBudget, one
// Progress report per probe, and the full run's first n keep/skip
// decisions; a budget of every probe is the full run.
func TestVolcanoSHCallBudgetEveryProbe(t *testing.T) {
	for i := 1; i <= 6; i++ {
		var full []submod.Progress
		ref := RunWith(context.Background(), bqOptimizer(t, i), VolcanoSH, Config{Progress: func(p submod.Progress) { full = append(full, p) }})
		probes := ref.OracleCalls
		if probes == 0 || len(full) != probes || ref.Telemetry.Rounds != probes {
			t.Fatalf("BQ%d: full run made %d probes in %d rounds with %d reports", i, probes, ref.Telemetry.Rounds, len(full))
		}
		var prev []memo.GroupID
		for n := 0; n <= probes; n++ {
			label := fmt.Sprintf("BQ%d budget %d of %d", i, n, probes)
			var got []submod.Progress
			r := RunWith(context.Background(), bqOptimizer(t, i), VolcanoSH, Config{Progress: func(p submod.Progress) { got = append(got, p) }}.LimitOracleCalls(n))
			want := submod.StopCallBudget
			if n == probes {
				want = submod.StopNone
			}
			if r.OracleCalls != n || r.Telemetry.Rounds != n || r.Stopped() != want {
				t.Fatalf("%s: %d calls, %d rounds, stopped %v; want %d, %d, %v", label, r.OracleCalls, r.Telemetry.Rounds, r.Stopped(), n, n, want)
			}
			if !slices.Equal(got, full[:n]) {
				t.Fatalf("%s: reports %+v, want the full run's first %d %+v", label, got, n, full[:n])
			}
			kept := 0
			if n > 0 {
				kept = got[n-1].Selected
			}
			if len(r.Materialized) != kept || !subset(prev, r.Materialized) {
				t.Fatalf("%s: kept %v after %v, %d selected", label, r.Materialized, prev, kept)
			}
			prev = r.Materialized
		}
		if !slices.Equal(prev, ref.Materialized) {
			t.Fatalf("BQ%d: the full budget kept %v, the unbudgeted run %v", i, prev, ref.Materialized)
		}
	}
}

// subset reports whether every id of a is in b.
func subset(a, b []memo.GroupID) bool {
	for _, id := range a {
		if !slices.Contains(b, id) {
			return false
		}
	}
	return true
}
