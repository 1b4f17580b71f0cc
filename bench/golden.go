package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// goldenSeed is the seed golden.json was recorded at; every other seed is
// held to the checks that need no reference.
const goldenSeed = 1

//go:embed golden.json
var goldenJSON []byte

// goldenRec is what golden.json pins per (workload, distinct input).
type goldenRec struct {
	CostMS       float64 `json:"cost_ms"`
	VolcanoMS    float64 `json:"volcano_cost_ms"`
	Materialized int     `json:"materialized"`
	OracleCalls  int     `json:"oracle_calls"`
}

// golden is one workload's pinned outcomes; nil off the golden seed.
type golden map[string]goldenRec

// recording turns the comparison off while -record-golden rewrites the file.
var recording bool

func loadGolden(workload string, seed int64) (golden, error) {
	if seed != goldenSeed || recording {
		return nil, nil
	}
	var all map[string]golden
	if err := json.Unmarshal(goldenJSON, &all); err != nil {
		return nil, fmt.Errorf("bench/golden.json: %w", err)
	}
	g, ok := all[workload]
	if !ok {
		return nil, fmt.Errorf("bench/golden.json has no workload %q; run with -record-golden", workload)
	}
	return g, nil
}

// sameCost compares two model costs to 1e-9 relative.
func sameCost(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// check returns why an op's outcome is wrong, or "" when it is right: the
// plan must pass the optimizer's own audit, cost no more than the unshared
// plans, total what the search said it costs and, on the golden seed, be
// the pinned outcome.
func (g golden) check(key string, r record, planTotal float64, validate error) string {
	switch {
	case validate != nil:
		return "validate: " + validate.Error()
	case r.CostMS > r.VolcanoMS && !sameCost(r.CostMS, r.VolcanoMS):
		return fmt.Sprintf("cost %v above the unshared cost %v", r.CostMS, r.VolcanoMS)
	case !sameCost(planTotal, r.CostMS):
		return fmt.Sprintf("plan totals %v, search said %v", planTotal, r.CostMS)
	}
	if g == nil {
		return ""
	}
	want, ok := g[key]
	if !ok {
		return "no golden for input " + key
	}
	got := goldenRec{r.CostMS, r.VolcanoMS, r.Materialized, r.OracleCalls}
	if !sameCost(got.CostMS, want.CostMS) || !sameCost(got.VolcanoMS, want.VolcanoMS) ||
		got.Materialized != want.Materialized || got.OracleCalls != want.OracleCalls {
		return fmt.Sprintf("input %s: got %+v, golden %+v", key, got, want)
	}
	return ""
}

// writeGolden rewrites bench/golden.json from a run of every workload.
func writeGolden(results []*result) error {
	all := map[string]golden{}
	for _, r := range results {
		if r.Failed > 0 {
			return fmt.Errorf("%s: %d failed ops; not recording", r.Workload, r.Failed)
		}
		if len(r.Inputs) < r.Distinct {
			return fmt.Errorf("%s: reached %d of %d inputs; record with a larger -seconds", r.Workload, len(r.Inputs), r.Distinct)
		}
		g := golden{}
		for key, rec := range r.Inputs {
			g[key] = goldenRec{rec.CostMS, rec.VolcanoMS, rec.Materialized, rec.OracleCalls}
		}
		all[r.Workload] = g
	}
	data, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("bench", "golden.json"), append(data, '\n'), 0o644)
}
