package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestDeclarations keeps BENCHMARK.json and the harness's own tables in step.
func TestDeclarations(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkJSON
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(decl.Workloads), len(workloadDefs))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloadDefs[i].name || w.Why != workloadDefs[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, w.Name, workloadDefs[i].name)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(i int, got, want metric, kind string) {
		if got != want {
			t.Errorf("%s %d: BENCHMARK.json %+v, harness %+v", kind, i, got, want)
		}
		if !name.MatchString(want.Name) || seen[want.Name] {
			t.Errorf("%s %q: malformed or repeated name", kind, want.Name)
		}
		seen[want.Name] = true
	}
	if len(decl.EndToEnd) != len(endToEnd) || len(decl.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, the harness %d+%d",
			len(decl.EndToEnd), len(decl.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range decl.EndToEnd {
		check(i, metric{m.Name, m.Unit, m.Better, m.Bound}, endToEnd[i], "end_to_end")
	}
	for i, m := range decl.PerLayer {
		check(i, metric{m.Name, m.Unit, m.Better, 0}, perLayer[i], "per_layer")
	}
}

// smokeRun runs one workload both ways for a moment and checks what every
// run must satisfy: no failed op, every declared metric reported once with
// its unit, and — because a traced run holds the replayed stages against
// the Session path input by input — the two paths agreeing on every plan.
func smokeRun(t *testing.T, def workloadDef, seed int64, modes ...bool) {
	t.Helper()
	for _, traced := range modes {
		res, err := runWorkload(def, seed, 0.1, traced)
		if err != nil {
			t.Fatalf("%s traced=%v: %v", def.name, traced, err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s traced=%v: %d of %d ops failed: %v", def.name, traced, res.Failed, res.Attempted, res.Failures)
		}
		declared := endToEnd
		if traced {
			declared = perLayer
		}
		if len(res.Metrics) != len(declared) {
			t.Errorf("%s traced=%v: %d metrics reported, %d declared", def.name, traced, len(res.Metrics), len(declared))
		}
		for _, m := range declared {
			v, ok := res.Metrics[m.Name]
			if !ok || v.Unit != m.Unit {
				t.Errorf("%s traced=%v: metric %s missing or in unit %q", def.name, traced, m.Name, v.Unit)
			}
			if !traced && v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", def.name, m.Name, v.Value)
			}
		}
		if traced {
			if got := res.Metrics["error_rate"].Value; got != 0 {
				t.Errorf("%s: error_rate %v", def.name, got)
			}
			if c := res.Metrics["session.stage_cover"].Value; c < 0.5 || c > 1.5 {
				t.Errorf("%s: stage cover %v: the spans do not add up to the op", def.name, c)
			}
		}
	}
}

// TestSmoke drives all six workloads' code paths on miniature inputs (the
// committed sizes take seconds to warm), then the real cold_batch inputs at
// the golden seed so that golden.json is held against the optimizer.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark harness for a few seconds")
	}
	calibIters = 1000
	outDir = t.TempDir()
	small := []workloadDef{
		{"cold_batch", "", libWorkload{queries: 8, sharing: 0.25, pool: 3}.setup},
		{"warm_fit", "", libWorkload{queries: 8, sharing: 0.25, pool: 2, sessions: 2}.setup},
		{"warm_spill", "", libWorkload{queries: 8, sharing: 0.25, pool: 3, sessions: 1}.setup},
		{"serve_solo", "", serveWorkload{queries: 4, specs: 3}.setup},
		{"serve_batched", "", serveWorkload{queries: 4, specs: 3, batched: true}.setup},
		{"serve_routed", "", serveWorkload{queries: 4, specs: 3, replicas: 2}.setup},
	}
	for _, def := range small {
		smokeRun(t, def, 7, false, true)
	}
	smokeRun(t, workloadDefs[0], goldenSeed, true)
}

func TestQuantile(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{nil, 0.1, 0},
		{[]float64{7}, 0.1, 7},
		{[]float64{5, 1, 4, 2, 3}, 0.1, 1.4},
		{[]float64{5, 1, 4, 2, 3}, 0.9, 4.6},
		{[]float64{5, 1, 4, 2, 3}, 1, 5},
		{[]float64{2, 1}, 0.5, 1.5},
	} {
		if got := quantile(tc.xs, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", tc.xs, tc.q, got, tc.want)
		}
	}
}

func TestCompare(t *testing.T) {
	write := func(name string, f outputFile) string {
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := t.TempDir() + "/" + name
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	run := func(throughput float64, cost float64) outputFile {
		m := map[string]value{}
		for _, e := range endToEnd {
			m[e.Name] = value{1, e.Unit}
		}
		m["throughput_ops_s"] = value{throughput, "1/s"}
		return outputFile{
			Env: environment{CPUModel: "x", GOMAXPROCS: 2, Seed: 1, Seconds: 10},
			Workloads: []*result{{Workload: "cold_batch", Metrics: m,
				Inputs: map[string]record{"0": {CostMS: cost, VolcanoMS: 2 * cost, OracleCalls: 5}}}},
		}
	}
	base := write("a.json", run(100, 10))
	for _, tc := range []struct {
		name string
		b    outputFile
		ok   bool
	}{
		{"same", run(100, 10), true},
		{"within bound", run(95, 10), true},
		{"beyond bound", run(70, 10), false},
		{"input came out differently", run(100, 11), false},
		{"other seed", func() outputFile { f := run(100, 10); f.Env.Seed = 2; return f }(), false},
		{"workload missing", func() outputFile { f := run(100, 10); f.Workloads = nil; return f }(), false},
	} {
		if err := compareFiles(base, write("b.json", tc.b)); (err == nil) != tc.ok {
			t.Errorf("%s: compare returned %v", tc.name, err)
		}
	}
}
