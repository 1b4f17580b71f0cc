package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/memo"
	"repro/internal/tpcd"
	"repro/internal/volcano"
)

// MemorySweep reproduces the paper's side note that experiments were also
// conducted with 128 MB of operator memory (Section 6): larger memory makes
// sorts and nested-loop joins cheaper, which shrinks — but does not erase —
// the benefit of sharing.
func MemorySweep() (*Table, error) {
	t := &Table{
		Title:   "Operator memory sweep (Section 6 note): BQ3 at SF 1",
		Columns: []string{"Memory", "Volcano (s)", "Greedy (s)", "MarginalGreedy (s)", "Greedy gain"},
	}
	cat := tpcd.Catalog(1)
	for _, memMB := range []int{6, 128} {
		model := cost.Default()
		model.MemBytes = memMB << 20
		res := map[core.Strategy]core.Result{}
		for _, s := range strategies {
			opt, err := volcano.NewOptimizer(cat, model, tpcd.BQ(3))
			if err != nil {
				return nil, err
			}
			res[s] = core.RunWith(context.TODO(), opt, s, core.Config{})
		}
		v, g, m := res[core.Volcano], res[core.Greedy], res[core.MarginalGreedy]
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d MB", memMB),
			seconds(v.Cost), seconds(g.Cost), seconds(m.Cost),
			gain(v.Cost, g.Cost),
		})
	}
	return t, nil
}

// RuleAblation quantifies the design choices DESIGN.md calls out: how much
// of the MQO benefit on the batched workload comes from the select- and
// aggregate-subsumption rules versus plain identical-subexpression
// unification.
func RuleAblation() (*Table, error) {
	t := &Table{
		Title:   "Rule ablation: MarginalGreedy on BQ4 (SF 1) with subsumption rules toggled",
		Columns: []string{"Rules", "Cost (s)", "#mat", "Shareable nodes", "Benefit vs Volcano"},
	}
	cat := tpcd.Catalog(1)
	type variant struct {
		name string
		opts []memo.Option
	}
	for _, v := range []variant{
		{"all rules", nil},
		{"no select subsumption", []memo.Option{memo.WithoutSelectSubsumption()}},
		{"no aggregate subsumption", []memo.Option{memo.WithoutAggSubsumption()}},
		{"no subsumption at all", []memo.Option{memo.WithoutSelectSubsumption(), memo.WithoutAggSubsumption()}},
	} {
		opt, err := volcano.NewOptimizer(cat, cost.Default(), tpcd.BQ(4), v.opts...)
		if err != nil {
			return nil, err
		}
		r := core.RunWith(context.TODO(), opt, core.MarginalGreedy, core.Config{})
		t.Rows = append(t.Rows, []string{
			v.name,
			seconds(r.Cost),
			fmt.Sprintf("%d", len(r.Materialized)),
			fmt.Sprintf("%d", len(opt.Shareable())),
			gain(r.VolcanoCost, r.Cost),
		})
	}
	t.Notes = append(t.Notes,
		"Subsumption strictly enriches the plan space — bc(S) never increases for any fixed S — "+
			"but the greedy trajectory over the richer DAG can land on a slightly different local optimum, "+
			"so per-variant end costs are not strictly ordered.")
	return t, nil
}

// Baselines compares the full lineage of MQO strategies on the batched
// workloads: stand-alone Volcano, the post-optimization Volcano-SH
// (Subramanian & Venkataraman; "can be highly suboptimal"), the
// materialize-everything heuristic the paper attributes to Silva et al.
// ("can be horribly inefficient"), the Greedy of Roy et al., the paper's
// MarginalGreedy, and — where the shareable universe is small enough —
// the exhaustive optimum.
func Baselines() (*Table, error) {
	t := &Table{
		Title: "MQO strategy lineage on batched workloads (SF 1, estimated cost in s)",
		Columns: []string{"Workload", "Volcano", "Volcano-SH", "MaterializeAll",
			"Greedy", "MarginalGreedy", "Exhaustive"},
	}
	cat := tpcd.Catalog(1)
	for i := 1; i <= 3; i++ {
		row := []string{fmt.Sprintf("BQ%d", i)}
		var shareableN int
		for _, s := range []core.Strategy{core.Volcano, core.VolcanoSH, core.MaterializeAll,
			core.Greedy, core.MarginalGreedy, core.Exhaustive} {
			opt, err := volcano.NewOptimizer(cat, cost.Default(), tpcd.BQ(i))
			if err != nil {
				return nil, err
			}
			shareableN = len(opt.Shareable())
			if s == core.Exhaustive && shareableN > 18 {
				row = append(row, "-")
				continue
			}
			row = append(row, seconds(core.RunWith(context.TODO(), opt, s, core.Config{}).Cost))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"Volcano-SH shares only subexpressions visible in the locally optimal plans; "+
			"MaterializeAll materializes every shareable node. Exhaustive is shown where the "+
			"shareable universe has at most 18 nodes.")
	return t, nil
}

// ExtendedOperators compares the paper's operator set (relation scan,
// indexed selection, NLJ, merge join, sort, sort-based aggregation)
// against an extended set with hash join and hash aggregation: plans get
// cheaper across the board, and the relative MQO benefit persists.
func ExtendedOperators() (*Table, error) {
	t := &Table{
		Title:   "Extended operator set: BQ3 at SF 1, paper rule set vs + hash join/agg",
		Columns: []string{"Operator set", "Volcano (s)", "Greedy (s)", "MarginalGreedy (s)", "Greedy gain"},
	}
	cat := tpcd.Catalog(1)
	for _, ext := range []bool{false, true} {
		name := "paper (sort/merge/NLJ)"
		if ext {
			name = "+ hash join & hash agg"
		}
		res := map[core.Strategy]core.Result{}
		for _, s := range strategies {
			opt, err := volcano.NewOptimizer(cat, cost.Default(), tpcd.BQ(3))
			if err != nil {
				return nil, err
			}
			opt.SetExtendedOps(ext)
			res[s] = core.RunWith(context.TODO(), opt, s, core.Config{})
		}
		v, g, m := res[core.Volcano], res[core.Greedy], res[core.MarginalGreedy]
		t.Rows = append(t.Rows, []string{
			name, seconds(v.Cost), seconds(g.Cost), seconds(m.Cost), gain(v.Cost, g.Cost),
		})
	}
	return t, nil
}

// CardinalityConstraint exercises the Section 5.3 variant: MarginalGreedy
// limited to k materializations, with and without the Theorem 4 universe
// reduction (identical answers, fewer oracle calls when pruning fires).
func CardinalityConstraint() (*Table, error) {
	t := &Table{
		Title:   "Cardinality-constrained MQO (Section 5.3): BQ4 at SF 1",
		Columns: []string{"k", "Cost (s)", "#mat", "Same with Theorem 4 reduction"},
	}
	cat := tpcd.Catalog(1)
	for _, k := range []int{1, 2, 4, 8} {
		opt, err := volcano.NewOptimizer(cat, cost.Default(), tpcd.BQ(4))
		if err != nil {
			return nil, err
		}
		full := core.RunK(opt, k, false)
		reduced := core.RunK(opt, k, true)
		same := len(full.Materialized) == len(reduced.Materialized) && full.Cost == reduced.Cost
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", k),
			seconds(full.Cost),
			fmt.Sprintf("%d", len(full.Materialized)),
			fmt.Sprintf("%v", same),
		})
	}
	return t, nil
}
