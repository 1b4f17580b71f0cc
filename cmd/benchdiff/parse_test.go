package main

import (
	"reflect"
	"strings"
	"testing"
)

// TestParseEdgeCases is the table-driven sweep over the raw line formats
// `go test -bench` (and hand-edited files) can produce: lines with and
// without the allocs columns, duplicate benchmark names across runs,
// zero-iteration lines, and assorted noise that must parse to nothing
// rather than panic or misparse.
func TestParseEdgeCases(t *testing.T) {
	type vals = map[string]float64
	cases := []struct {
		name  string
		input string
		want  Runs
	}{
		{
			name:  "ns/op only, no allocs columns",
			input: "BenchmarkLean 	 100 	 2500 ns/op\n",
			want:  Runs{"BenchmarkLean": {{}}},
		},
		{
			name:  "full allocs columns",
			input: "BenchmarkFull-8 	 10 	 1200 ns/op 	 512 B/op 	 7 allocs/op\n",
			want:  Runs{"BenchmarkFull": {{"B/op": 512, "allocs/op": 7}}},
		},
		{
			name: "duplicate names keep every run",
			input: "BenchmarkDup 	 1 	 300 ns/op 	 90 bc_calls\n" +
				"BenchmarkDup-4 	 1 	 200 ns/op 	 100 bc_calls\n",
			want: Runs{"BenchmarkDup": {{"bc_calls": 90}, {"bc_calls": 100}}},
		},
		{
			name: "duplicate where one run lacks the bc_calls metric",
			input: "BenchmarkMixed 	 1 	 300 ns/op 	 50 bc_calls\n" +
				"BenchmarkMixed 	 1 	 200 ns/op\n",
			want: Runs{"BenchmarkMixed": {{"bc_calls": 50}, {}}},
		},
		{
			name:  "metric before ns/op is not mistaken for it",
			input: "BenchmarkOrder 	 1 	 42 widgets 	 900 ns/op\n",
			want:  Runs{"BenchmarkOrder": {{"widgets": 42}}},
		},
		{
			name:  "zero-count run still records its measurement",
			input: "BenchmarkZeroCount 	 0 	 1500 ns/op 	 3 bc_calls\n",
			want:  Runs{"BenchmarkZeroCount": {{"bc_calls": 3}}},
		},
		{
			name:  "sub-nanosecond result survives",
			input: "BenchmarkFast-16 	 1000000000 	 0.2534 ns/op 	 0 allocs/op\n",
			want:  Runs{"BenchmarkFast": {{"allocs/op": 0}}},
		},
		{
			name:  "non-integer iteration count is not a benchmark line",
			input: "BenchmarkJunk 	 x 	 12 ns/op\n",
			want:  Runs{},
		},
		{
			name:  "missing value column",
			input: "BenchmarkShort 	 5 	 ns/op\n",
			want:  Runs{},
		},
		{
			name: "GOMAXPROCS suffix stripped only from the last element",
			input: "BenchmarkA/sub-8 	 1 	 10 ns/op 	 1 x\n" +
				"BenchmarkB-8/sub 	 1 	 20 ns/op 	 2 x\n",
			want: Runs{
				"BenchmarkA/sub":   {vals{"x": 1}},
				"BenchmarkB-8/sub": {vals{"x": 2}},
			},
		},
		{
			name: "noise lines are ignored",
			input: "goos: linux\nPASS\nok  	repro	1.2s\n--- FAIL: BenchmarkX\n" +
				"Benchmark\nBenchmarkOnlyName\n\n",
			want: Runs{},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runs, err := Parse(strings.NewReader(tc.input))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(runs, tc.want) {
				t.Errorf("parsed %v, want %v", runs, tc.want)
			}
		})
	}
}

// TestParseHeaderOnly: a run that produced headers but no benchmarks (all
// filtered out) parses cleanly to nothing — main turns that into an
// explicit error rather than recording an empty baseline.
func TestParseHeaderOnly(t *testing.T) {
	runs, err := Parse(strings.NewReader("goos: linux\ngoarch: amd64\ncpu: Fake CPU\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 0 {
		t.Errorf("runs = %v", runs)
	}
}
