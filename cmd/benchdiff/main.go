// Command benchdiff records and gates the values `go test -bench` reports
// that are pure functions of the input: oracle-call counts, costs, chosen
// set sizes, computed keys, zero allocation counts. It never gates a clock:
// ns/op is not recorded, and timings are compared only parent against
// change on one machine (`go run ./bench`).
//
// Recording keeps, per benchmark, every reported value except ns/op that is
// identical in every run piped in; a value that moves between runs, or with
// GOMAXPROCS, is left out, and so is a nonzero allocation count (see
// Agreed). Record the gate set three times at each of GOMAXPROCS 1, 2 and 4
// (commit the output; the more runs, the less a wandering count can agree
// by chance):
//
//	for p in 1 2 4; do GOMAXPROCS=$p go test -bench 'BenchmarkBestCost|BenchmarkOracleRound|BenchmarkL1Probe|BenchmarkNewWorker|BenchmarkWorkload/(64x|256x0.25)|BenchmarkWorkloadDAGBuild/(64|256)x0.25|BenchmarkSessionRepeat|BenchmarkPublishCache|BenchmarkServer|BenchmarkRouter' -benchtime 1x -count 3 -run '^$' ./...; done | go run ./cmd/benchdiff -record BENCH_baseline.json
//
// Gating (exits 1 on any failure):
//
//	go test -bench ... | go run ./cmd/benchdiff -baseline BENCH_baseline.json
//
// The gate requires every recorded value to come back exactly. A recorded
// benchmark missing from the run fails, and so does a recorded value that
// differs between the runs piped into one gate invocation
// (nondeterministic). Benchmarks not in the baseline are listed, not gated.
// Both flags together gate and write the fresh recording.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
)

func main() {
	baseline := flag.String("baseline", "", "recorded JSON to gate against")
	record := flag.String("record", "", "write the values every run agreed on as JSON")
	flag.Parse()
	if *baseline == "" && *record == "" {
		fatal(fmt.Errorf("need -baseline and/or -record"))
	}
	runs, err := Parse(os.Stdin)
	if err != nil {
		fatal(err)
	}
	if len(runs) == 0 {
		fatal(fmt.Errorf("no benchmark lines on stdin"))
	}
	if *record != "" {
		rec := Agreed(runs)
		data, err := json.MarshalIndent(rec, "", "  ") // fails on a NaN or Inf value
		if err == nil {
			err = os.WriteFile(*record, append(data, '\n'), 0o644)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("recorded %d values in %d benchmarks to %s\n", rec.values(), len(rec), *record)
	}
	if *baseline == "" {
		return
	}
	data, err := os.ReadFile(*baseline)
	if err != nil {
		fatal(err)
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		fatal(fmt.Errorf("%s: %v", *baseline, err))
	}
	if len(base) == 0 {
		fatal(fmt.Errorf("%s gates nothing", *baseline))
	}
	fails, ungated := Compare(base, runs)
	if len(ungated) > 0 {
		fmt.Printf("not gated (not in the baseline): %s\n", strings.Join(ungated, ", "))
	}
	if len(fails) > 0 {
		fmt.Printf("benchdiff: FAIL — %d mismatches gating %d values in %d benchmarks:\n%s\n",
			len(fails), base.values(), len(base), strings.Join(fails, "\n"))
		os.Exit(1)
	}
	fmt.Printf("benchdiff: ok — %d values in %d benchmarks reproduced exactly\n", base.values(), len(base))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(2)
}

// Baseline is a recording: per benchmark, the values by unit that every
// recorded run reported identically.
type Baseline map[string]map[string]float64

func (b Baseline) values() int {
	n := 0
	for _, vals := range b {
		n += len(vals)
	}
	return n
}

// Agreed returns, per benchmark, the values every one of its runs reported
// identically; a benchmark with none is left out. A nonzero B/op or
// allocs/op is left out too: it counts what the runtime and other
// goroutines allocate meanwhile, so it can agree across nine runs and move
// in the tenth.
func Agreed(runs Runs) Baseline {
	rec := Baseline{}
	for name, rs := range runs {
		vals := map[string]float64{}
		for unit := range rs[0] {
			v, ok := same(rs, unit)
			if ok && (v == 0 || unit != "B/op" && unit != "allocs/op") {
				vals[unit] = v
			}
		}
		if len(vals) > 0 {
			rec[name] = vals
		}
	}
	return rec
}

// same returns unit's value when every run reports it, and reports the
// same number.
func same(rs []map[string]float64, unit string) (float64, bool) {
	v, ok := rs[0][unit]
	for _, r := range rs[1:] {
		if w, has := r[unit]; !has || w != v {
			return 0, false
		}
	}
	return v, ok
}

// Compare checks runs against base: one line per recorded value that did not
// come back exactly (or per recorded benchmark missing from the run), and
// the run's benchmarks base does not gate. Both are sorted.
func Compare(base Baseline, runs Runs) (fails, ungated []string) {
	for name, want := range base {
		rs, ok := runs[name]
		if !ok {
			fails = append(fails, fmt.Sprintf("%s: missing from this run", name))
			continue
		}
		for unit, old := range want {
			switch v, ok := same(rs, unit); {
			case ok && v == old:
			case ok:
				fails = append(fails, fmt.Sprintf("%s %s: %v → %v", name, unit, old, v))
			default:
				got := make([]string, len(rs))
				for i, r := range rs {
					if w, has := r[unit]; has {
						got[i] = fmt.Sprint(w)
					} else {
						got[i] = "none"
					}
				}
				fails = append(fails, fmt.Sprintf("%s %s: nondeterministic, recorded %v, runs report %s",
					name, unit, old, strings.Join(got, " / ")))
			}
		}
	}
	for name := range runs {
		if _, ok := base[name]; !ok {
			ungated = append(ungated, name)
		}
	}
	slices.Sort(fails)
	slices.Sort(ungated)
	return fails, ungated
}
