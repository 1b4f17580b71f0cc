package main

import (
	"math"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkWorkload/64x0.25 	       1	 374795203 ns/op	      1716 bc_calls	     21291 cost_s
BenchmarkWorkload/64x0.25 	       1	 359985525 ns/op	      1716 bc_calls	     21291 cost_s
BenchmarkWorkload/64x0.75 	       1	 199543405 ns/op	      1483 bc_calls	     17488 cost_s
BenchmarkBestCost-8                         	       1	      1306 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	repro	1.906s
`

func TestParse(t *testing.T) {
	snap, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if snap.GOOS != "linux" || snap.GOARCH != "amd64" || !strings.Contains(snap.CPU, "Xeon") {
		t.Errorf("header not parsed: %+v", snap)
	}
	want := map[string]Bench{
		"BenchmarkWorkload/64x0.25": {NsPerOp: 359985525, BCCalls: 1716}, // minimum of the two counts
		"BenchmarkWorkload/64x0.75": {NsPerOp: 199543405, BCCalls: 1483},
		"BenchmarkBestCost":         {NsPerOp: 1306}, // -8 suffix stripped, no bc_calls metric
	}
	if len(snap.Benchmarks) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %v", len(snap.Benchmarks), len(want), snap.Benchmarks)
	}
	for name, b := range want {
		if got := snap.Benchmarks[name]; got != b {
			t.Errorf("%s = %+v, want %+v", name, got, b)
		}
	}
}

func TestParseIgnoresNonBenchLines(t *testing.T) {
	snap, err := Parse(strings.NewReader("FAIL\nBenchmarkBroken no fields\nBenchmark0 x 12 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Benchmarks) != 0 {
		t.Errorf("junk lines produced benchmarks: %v", snap.Benchmarks)
	}
}

func TestCompareGeomeanGate(t *testing.T) {
	base := &Snapshot{Benchmarks: map[string]Bench{"A": {NsPerOp: 100}, "B": {NsPerOp: 100}, "C": {NsPerOp: 100}}}
	// One benchmark 2x slower, two unchanged: geomean = 2^(1/3) ≈ 1.26.
	snap := &Snapshot{Benchmarks: map[string]Bench{"A": {NsPerOp: 200}, "B": {NsPerOp: 100}, "C": {NsPerOp: 100}}}
	rep := Compare(base, snap, 1.25, 1.05)
	if !rep.Fail {
		t.Errorf("geomean %.3f should fail the 1.25 gate", rep.Geomean)
	}
	if math.Abs(rep.Geomean-math.Cbrt(2)) > 1e-9 {
		t.Errorf("geomean = %v, want cbrt(2)", rep.Geomean)
	}
	// A uniform 20% improvement passes even with one 2x outlier removed.
	snap2 := &Snapshot{Benchmarks: map[string]Bench{"A": {NsPerOp: 80}, "B": {NsPerOp: 80}, "C": {NsPerOp: 80}}}
	if rep := Compare(base, snap2, 1.25, 1.05); rep.Fail {
		t.Errorf("uniform speedup failed the gate: geomean %.3f, %s", rep.Geomean, rep.Reason)
	}
}

func TestCompareOracleCallGate(t *testing.T) {
	base := &Snapshot{Benchmarks: map[string]Bench{"W": {NsPerOp: 100, BCCalls: 1000}, "B": {NsPerOp: 100}}}
	// Wall clock fine, but the deterministic call count grew 10%: fail.
	snap := &Snapshot{Benchmarks: map[string]Bench{"W": {NsPerOp: 100, BCCalls: 1100}, "B": {NsPerOp: 100}}}
	rep := Compare(base, snap, 1.25, 1.05)
	if !rep.Fail || !strings.Contains(rep.Reason, "oracle calls") {
		t.Errorf("call growth did not fail the gate: fail=%v reason=%q", rep.Fail, rep.Reason)
	}
	// Within the tolerance (and with fewer calls) it passes.
	snap2 := &Snapshot{Benchmarks: map[string]Bench{"W": {NsPerOp: 100, BCCalls: 900}, "B": {NsPerOp: 100}}}
	if rep := Compare(base, snap2, 1.25, 1.05); rep.Fail {
		t.Errorf("call reduction failed the gate: %s", rep.Reason)
	}
}

func TestCompareMissingFailsGate(t *testing.T) {
	base := &Snapshot{Benchmarks: map[string]Bench{"A": {NsPerOp: 100}, "Gone": {NsPerOp: 50}}}
	snap := &Snapshot{Benchmarks: map[string]Bench{"A": {NsPerOp: 100}, "New": {NsPerOp: 10}}}
	rep := Compare(base, snap, 1.25, 1.05)
	if !rep.Fail || !strings.Contains(rep.Reason, "missing") {
		t.Errorf("missing baseline benchmark must fail the gate: fail=%v reason=%q", rep.Fail, rep.Reason)
	}
	if len(rep.Missing) != 1 || rep.Missing[0] != "Gone" {
		t.Errorf("Missing = %v", rep.Missing)
	}
	if len(rep.Added) != 1 || rep.Added[0] != "New" {
		t.Errorf("Added = %v", rep.Added)
	}
	if !strings.Contains(rep.Table(), "Gone") {
		t.Error("table does not mention the missing benchmark")
	}
}

func TestCompareNoCommonFails(t *testing.T) {
	base := &Snapshot{Benchmarks: map[string]Bench{"A": {NsPerOp: 100}}}
	snap := &Snapshot{Benchmarks: map[string]Bench{"B": {NsPerOp: 100}}}
	if rep := Compare(base, snap, 1.25, 1.05); !rep.Fail {
		t.Error("disjoint benchmark sets must fail the gate")
	}
}

// TestCompareRefusesAcrossMachines: ns/op is gated only between runs of one
// CPU model at one GOMAXPROCS. Across machines the comparison is refused —
// the report fails with one line naming the difference — while the
// machine-independent call counts are still gated and reported.
func TestCompareRefusesAcrossMachines(t *testing.T) {
	bench := func(ns, calls float64) map[string]Bench {
		return map[string]Bench{"W": {NsPerOp: ns, BCCalls: calls}, "B": {NsPerOp: 100}}
	}
	for _, tc := range []struct {
		name       string
		base, snap Snapshot
		fail       bool
		reason     []string // substrings of Reason
		ratios     bool     // ns/op ratios computed
	}{
		{"same machine", Snapshot{CPU: "x", GOMAXPROCS: 2, Benchmarks: bench(100, 1000)}, Snapshot{CPU: "x", GOMAXPROCS: 2, Benchmarks: bench(110, 1000)}, false, nil, true},
		{"same machine, slower", Snapshot{CPU: "x", GOMAXPROCS: 2, Benchmarks: bench(100, 1000)}, Snapshot{CPU: "x", GOMAXPROCS: 2, Benchmarks: bench(400, 1000)}, true, []string{"geomean"}, true},
		{"other CPU", Snapshot{CPU: "x", Benchmarks: bench(100, 1000)}, Snapshot{CPU: "y", Benchmarks: bench(50, 1000)}, true, []string{"refusing to gate ns/op", `CPU "x"`, `"y"`, "oracle calls are within"}, false},
		{"other GOMAXPROCS", Snapshot{CPU: "x", GOMAXPROCS: 1, Benchmarks: bench(100, 1000)}, Snapshot{CPU: "x", GOMAXPROCS: 4, Benchmarks: bench(100, 1000)}, true, []string{"refusing to gate ns/op", "GOMAXPROCS 1", "at 4"}, false},
		{"other CPU, calls grew", Snapshot{CPU: "x", Benchmarks: bench(100, 1000)}, Snapshot{CPU: "y", Benchmarks: bench(100, 1200)}, true, []string{"refusing to gate ns/op", "W oracle calls grew 1000 -> 1200"}, false},
		{"baseline without a machine", Snapshot{Benchmarks: bench(100, 1000)}, Snapshot{CPU: "y", GOMAXPROCS: 2, Benchmarks: bench(100, 1000)}, false, nil, true},
		{"baseline without GOMAXPROCS", Snapshot{CPU: "x", Benchmarks: bench(100, 1000)}, Snapshot{CPU: "x", GOMAXPROCS: 2, Benchmarks: bench(100, 1000)}, false, nil, true},
	} {
		rep := Compare(&tc.base, &tc.snap, 1.25, 1.05)
		if rep.Fail != tc.fail {
			t.Errorf("%s: fail = %t (%s), want %t", tc.name, rep.Fail, rep.Reason, tc.fail)
		}
		for _, want := range tc.reason {
			if !strings.Contains(rep.Reason, want) {
				t.Errorf("%s: reason %q does not mention %q", tc.name, rep.Reason, want)
			}
		}
		if strings.Contains(rep.Reason, "\n") {
			t.Errorf("%s: reason spans lines: %q", tc.name, rep.Reason)
		}
		for _, row := range rep.Rows {
			if (row.Ratio > 0) != tc.ratios {
				t.Errorf("%s: row %s has ns/op ratio %v, computed across machines: %t", tc.name, row.Name, row.Ratio, !tc.ratios)
			}
		}
	}
}

func TestParseRecordsGOMAXPROCS(t *testing.T) {
	for in, want := range map[string]int{
		"BenchmarkA-4 1 10 ns/op\nBenchmarkB/x-4 1 10 ns/op\n": 4,
		"BenchmarkA 1 10 ns/op\n":                              1,
		"BenchmarkWorkload/64x0.25/p4-2 1 10 ns/op\n":          2,
	} {
		snap, err := Parse(strings.NewReader(in))
		if err != nil || snap.GOMAXPROCS != want {
			t.Errorf("Parse(%q): GOMAXPROCS %d (%v), want %d", in, snap.GOMAXPROCS, err, want)
		}
	}
}
