package main

import (
	"reflect"
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
	runs, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	want := Runs{
		"BenchmarkWorkload/64x0.25": {{"bc_calls": 1716, "cost_s": 21291}, {"bc_calls": 1716, "cost_s": 21291}},
		"BenchmarkWorkload/64x0.75": {{"bc_calls": 1483, "cost_s": 17488}},
		"BenchmarkBestCost":         {{"B/op": 0, "allocs/op": 0}}, // -8 suffix stripped, no ns/op
	}
	if !reflect.DeepEqual(runs, want) {
		t.Errorf("parsed %v, want %v", runs, want)
	}
}

func TestParseIgnoresNonBenchLines(t *testing.T) {
	runs, err := Parse(strings.NewReader("FAIL\nBenchmarkBroken no fields\nBenchmark0 x 12 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 0 {
		t.Errorf("junk lines produced benchmarks: %v", runs)
	}
}

// TestRecordThenGate records one `go test -bench` output and gates another
// against it, through the same Parse → Agreed → Compare path main takes.
func TestRecordThenGate(t *testing.T) {
	const recorded = `cpu: A
BenchmarkW-1 	 1 	 100 ns/op 	 786 bc_calls 	 3 allocs/op
BenchmarkW-4 	 1 	 900 ns/op 	 786 bc_calls 	 5 allocs/op
BenchmarkZ-1 	 1 	 50 ns/op 	 64 B/op 	 0 allocs/op
BenchmarkZ-4 	 1 	 70 ns/op 	 64 B/op 	 0 allocs/op
`
	for _, tc := range []struct {
		name     string
		run      string
		record   Baseline // what the recording keeps; checked when set
		fails    []string // substrings, one per failure line
		notGated []string
	}{
		{
			name:   "a value that differs across recorded runs is not recorded, nor is ns/op or a nonzero allocation count",
			run:    "BenchmarkW 1 5 ns/op 786 bc_calls 99 allocs/op\nBenchmarkZ 1 5 ns/op 0 allocs/op\n",
			record: Baseline{"BenchmarkW": {"bc_calls": 786}, "BenchmarkZ": {"allocs/op": 0}},
		},
		{
			name:  "an exact mismatch fails and names the benchmark, unit and values",
			run:   "BenchmarkW 1 5 ns/op 787 bc_calls\nBenchmarkZ 1 5 ns/op 1 allocs/op\n",
			fails: []string{"BenchmarkW bc_calls: 786 → 787", "BenchmarkZ allocs/op: 0 → 1"},
		},
		{
			name:  "a missing gated benchmark fails",
			run:   "BenchmarkW 1 5 ns/op 786 bc_calls\n",
			fails: []string{"BenchmarkZ: missing from this run"},
		},
		{
			name:     "a new benchmark is listed but not gated",
			run:      "BenchmarkW 1 5 ns/op 786 bc_calls\nBenchmarkZ 1 5 ns/op 0 allocs/op\nBenchmarkNew 1 5 ns/op 7 bc_calls\n",
			notGated: []string{"BenchmarkNew"},
		},
		{
			name:  "a count that differs inside one gate run fails as nondeterministic",
			run:   "BenchmarkW-1 1 5 ns/op 786 bc_calls\nBenchmarkW-4 1 5 ns/op 790 bc_calls\nBenchmarkZ 1 5 ns/op 0 allocs/op\n",
			fails: []string{"BenchmarkW bc_calls: nondeterministic, recorded 786, runs report 786 / 790"},
		},
		{
			name:  "a gated value one run does not report fails",
			run:   "BenchmarkW 1 5 ns/op 786 bc_calls\nBenchmarkW 1 5 ns/op\nBenchmarkZ 1 5 ns/op 0 allocs/op\n",
			fails: []string{"BenchmarkW bc_calls: nondeterministic, recorded 786, runs report 786 / none"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runs, err := Parse(strings.NewReader(recorded))
			if err != nil {
				t.Fatal(err)
			}
			base := Agreed(runs)
			if tc.record != nil && !reflect.DeepEqual(base, tc.record) {
				t.Errorf("recorded %v, want %v", base, tc.record)
			}
			run, err := Parse(strings.NewReader(tc.run))
			if err != nil {
				t.Fatal(err)
			}
			fails, notGated := Compare(base, run)
			if len(fails) != len(tc.fails) {
				t.Fatalf("fails %q, want %d matching %q", fails, len(tc.fails), tc.fails)
			}
			for i, want := range tc.fails {
				if !strings.Contains(fails[i], want) {
					t.Errorf("fail line %q does not say %q", fails[i], want)
				}
			}
			if !reflect.DeepEqual(notGated, tc.notGated) {
				t.Errorf("not gated %v, want %v", notGated, tc.notGated)
			}
		})
	}
}

// TestCompareOracleCallGate: bc_calls is gated exactly — growth and
// reduction both fail, since either means the search changed.
func TestCompareOracleCallGate(t *testing.T) {
	base := Baseline{"W": {"bc_calls": 1000}}
	for _, calls := range []float64{1100, 900, 1000} {
		fails, _ := Compare(base, Runs{"W": {{"bc_calls": calls}}})
		if (len(fails) == 0) != (calls == 1000) {
			t.Errorf("bc_calls 1000 → %v: fails %q", calls, fails)
		}
	}
}

func TestCompareMissingFailsGate(t *testing.T) {
	base := Baseline{"A": {"bc_calls": 1}, "Gone": {"bc_calls": 2}}
	fails, notGated := Compare(base, Runs{"A": {{"bc_calls": 1}}, "New": {{"bc_calls": 3}}})
	if len(fails) != 1 || !strings.Contains(fails[0], "Gone: missing") {
		t.Errorf("fails = %q, want Gone missing", fails)
	}
	if len(notGated) != 1 || notGated[0] != "New" {
		t.Errorf("not gated = %v", notGated)
	}
}

func TestCompareNoCommonFails(t *testing.T) {
	if fails, _ := Compare(Baseline{"A": {"bc_calls": 1}}, Runs{"B": {{"bc_calls": 1}}}); len(fails) == 0 {
		t.Error("disjoint benchmark sets must fail the gate")
	}
}
