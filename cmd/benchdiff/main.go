// Command benchdiff records and compares `go test -bench` results, gating
// CI on performance regressions.
//
// Recording a baseline (commit the output):
//
//	go test -bench 'BenchmarkBestCost|BenchmarkWorkload/64x' -benchtime 1x -count 3 -run '^$' ./... |
//	  go run ./cmd/benchdiff -record BENCH_baseline.json
//
// Gating against it (exits non-zero on regression):
//
//	go test -bench ... | go run ./cmd/benchdiff -baseline BENCH_baseline.json
//
// Both flags together compare AND write the fresh snapshot (CI uploads it
// as an artifact, so the benchmark trajectory is preserved run over run).
// With -count N the minimum per benchmark is kept — the least-noise
// estimator of the true cost.
//
// Two gates run over the common benchmarks, each tuned to what it can
// trust:
//
//   - wall clock: fail when the geometric mean of the per-benchmark
//     new/old ns-per-op ratios exceeds -threshold (default 1.25). A single
//     noisy benchmark cannot fail the build unless the regression is
//     drastic, while a broad slowdown always does. This gate is hardware-
//     sensitive, so it is refused — non-zero exit, one line saying why —
//     when the run's CPU model or GOMAXPROCS differs from the baseline's:
//     a ratio across machines passes real regressions and fails none.
//     Re-record the baseline on the machine that gates against it.
//   - oracle calls: fail when any benchmark's bc_calls metric (the
//     deterministic count of bestCost oracle evaluations the workload
//     benchmarks report) grows beyond -call-threshold (default 1.05).
//     Call counts are pure functions of the algorithm, identical on any
//     machine, so this gate catches scan-volume regressions that wall-
//     clock noise could hide.
//
// Baseline benchmarks missing from the new run fail the gate outright: a
// renamed benchmark or a drifted -bench regex must come with a deliberate
// baseline refresh, not a silently shrunken gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

func main() {
	var (
		baseline      = flag.String("baseline", "", "baseline JSON to compare against")
		record        = flag.String("record", "", "write the parsed benchmarks as a new snapshot JSON")
		threshold     = flag.Float64("threshold", 1.25, "fail when the geomean new/old ns-per-op ratio exceeds this")
		callThreshold = flag.Float64("call-threshold", 1.05, "fail when any benchmark's bc_calls ratio exceeds this")
	)
	flag.Parse()
	if *baseline == "" && *record == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: need -baseline and/or -record")
		os.Exit(2)
	}
	snap, err := Parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	if len(snap.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: no benchmark lines on stdin")
		os.Exit(2)
	}
	if *record != "" {
		if err := snap.Write(*record); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
		fmt.Printf("recorded %d benchmarks to %s\n", len(snap.Benchmarks), *record)
	}
	if *baseline == "" {
		return
	}
	base, err := Load(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	rep := Compare(base, snap, *threshold, *callThreshold)
	fmt.Print(rep.Table())
	if rep.Fail {
		fmt.Fprintf(os.Stderr, "benchdiff: FAIL — %s\n", rep.Reason)
		os.Exit(1)
	}
	fmt.Printf("benchdiff: ok — geomean ns/op ratio %.3f (threshold %.3f), oracle calls within %.2fx\n",
		rep.Geomean, *threshold, *callThreshold)
}

// Bench is one benchmark's recorded measurements: wall clock, plus the
// deterministic oracle-call metric when the benchmark reports one.
type Bench struct {
	NsPerOp float64 `json:"ns_per_op"`
	BCCalls float64 `json:"bc_calls,omitempty"`
}

// Snapshot is one recorded benchmark run: minimum measurements per
// benchmark name (GOMAXPROCS suffix stripped), plus the environment
// header go test printed, so a reader can judge whether two snapshots are
// comparable.
type Snapshot struct {
	Recorded   string           `json:"recorded,omitempty"`
	GOOS       string           `json:"goos,omitempty"`
	GOARCH     string           `json:"goarch,omitempty"`
	CPU        string           `json:"cpu,omitempty"`
	GOMAXPROCS int              `json:"gomaxprocs,omitempty"` // from the benchmark names' suffix
	Benchmarks map[string]Bench `json:"benchmarks"`
}

// otherMachine says why ns/op of the two snapshots cannot be compared — a
// different CPU model or GOMAXPROCS — or returns "" when they can. A field
// either side did not record decides nothing.
func otherMachine(base, snap *Snapshot) string {
	switch {
	case base.CPU != "" && snap.CPU != "" && base.CPU != snap.CPU:
		return fmt.Sprintf("the baseline was recorded on CPU %q, this run on %q", base.CPU, snap.CPU)
	case base.GOMAXPROCS != 0 && snap.GOMAXPROCS != 0 && base.GOMAXPROCS != snap.GOMAXPROCS:
		return fmt.Sprintf("the baseline was recorded at GOMAXPROCS %d, this run at %d", base.GOMAXPROCS, snap.GOMAXPROCS)
	}
	return ""
}

// Load reads a snapshot JSON.
func Load(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &s, nil
}

// Write stores the snapshot as indented JSON with sorted keys.
func (s *Snapshot) Write(path string) error {
	s.Recorded = time.Now().UTC().Format(time.RFC3339)
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Report is the outcome of one comparison.
type Report struct {
	Rows    []Row
	Missing []string // in baseline, absent from the new run (fails the gate)
	Added   []string // in the new run, absent from baseline
	Geomean float64
	Fail    bool
	Reason  string
}

// Row is one common benchmark with its ratios.
type Row struct {
	Name      string
	Old, New  Bench
	Ratio     float64 // ns/op; 0 when either side's ns/op is non-positive
	CallRatio float64 // bc_calls; 0 when either side lacks the metric
}

// Compare gates snap against base; see the package comment for the gate
// rules.
func Compare(base, snap *Snapshot, threshold, callThreshold float64) *Report {
	rep := &Report{}
	sum, n := 0.0, 0
	worstCalls := ""
	refused := otherMachine(base, snap)
	for name, old := range base.Benchmarks {
		nv, ok := snap.Benchmarks[name]
		if !ok {
			rep.Missing = append(rep.Missing, name)
			continue
		}
		r := Row{Name: name, Old: old, New: nv}
		// A non-positive ns/op (a hand-edited or corrupted baseline entry)
		// would drive the geomean to Inf/NaN and poison the whole gate;
		// such rows are shown but excluded from the ratio.
		if old.NsPerOp > 0 && nv.NsPerOp > 0 && refused == "" {
			r.Ratio = nv.NsPerOp / old.NsPerOp
			sum += math.Log(r.Ratio)
			n++
		}
		if old.BCCalls > 0 && nv.BCCalls > 0 {
			r.CallRatio = nv.BCCalls / old.BCCalls
			if r.CallRatio > callThreshold && worstCalls == "" {
				worstCalls = fmt.Sprintf("%s oracle calls grew %.0f -> %.0f (%.2fx > %.2fx)",
					name, old.BCCalls, nv.BCCalls, r.CallRatio, callThreshold)
			}
		}
		rep.Rows = append(rep.Rows, r)
	}
	for name := range snap.Benchmarks {
		if _, ok := base.Benchmarks[name]; !ok {
			rep.Added = append(rep.Added, name)
		}
	}
	sort.Slice(rep.Rows, func(i, j int) bool { return rep.Rows[i].Name < rep.Rows[j].Name })
	sort.Strings(rep.Missing)
	sort.Strings(rep.Added)
	switch {
	case refused != "":
		// The call counts are the same on any machine: still gated, and
		// reported with the refusal.
		rep.Fail = true
		rep.Geomean = math.NaN()
		calls := "oracle calls are within the gate"
		if worstCalls != "" {
			calls = worstCalls
		}
		rep.Reason = fmt.Sprintf("refusing to gate ns/op: %s (re-record the baseline on this machine); %s", refused, calls)
		if len(rep.Missing) > 0 {
			rep.Reason += fmt.Sprintf("; %d baseline benchmark(s) missing from the new run", len(rep.Missing))
		}
		return rep
	case n == 0:
		rep.Fail = true
		rep.Geomean = math.NaN()
		rep.Reason = "no comparable benchmarks between baseline and new run"
		return rep
	case len(rep.Missing) > 0:
		rep.Fail = true
		rep.Reason = fmt.Sprintf("%d baseline benchmark(s) missing from the new run (refresh the baseline deliberately): %v", len(rep.Missing), rep.Missing)
	}
	rep.Geomean = math.Exp(sum / float64(n))
	if !rep.Fail && rep.Geomean > threshold {
		rep.Fail = true
		rep.Reason = fmt.Sprintf("geomean ns/op ratio %.3f exceeds threshold %.3f", rep.Geomean, threshold)
	}
	if !rep.Fail && worstCalls != "" {
		rep.Fail = true
		rep.Reason = worstCalls
	}
	return rep
}

// Table renders the comparison for the CI log.
func (r *Report) Table() string {
	out := fmt.Sprintf("%-52s %14s %14s %8s %10s\n", "benchmark", "old ns/op", "new ns/op", "ratio", "calls")
	for _, row := range r.Rows {
		ratio, calls := "-", "-"
		if row.Ratio > 0 {
			ratio = fmt.Sprintf("%.3f", row.Ratio)
		}
		if row.CallRatio > 0 {
			calls = fmt.Sprintf("%.3f", row.CallRatio)
		}
		out += fmt.Sprintf("%-52s %14.0f %14.0f %8s %10s\n", row.Name, row.Old.NsPerOp, row.New.NsPerOp, ratio, calls)
	}
	for _, name := range r.Missing {
		out += fmt.Sprintf("%-52s missing from the new run\n", name)
	}
	for _, name := range r.Added {
		out += fmt.Sprintf("%-52s new benchmark (not in baseline)\n", name)
	}
	return out
}
