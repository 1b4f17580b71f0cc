package main

import (
	"encoding/json"
	"fmt"
	"os"
)

func readOutput(path string) (*outputFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f outputFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles holds run b against reference run a: per workload and
// end-to-end metric it prints both values, how much worse b is and the
// metric's bound. It fails when a bound is exceeded, when an input both
// runs optimized came out differently, when ops failed, or when a workload
// or metric is missing — and refuses outright to compare runs from
// different machines or seeds, whose numbers say nothing about each other.
func compareFiles(pathA, pathB string) error {
	a, err := readOutput(pathA)
	if err != nil {
		return err
	}
	b, err := readOutput(pathB)
	if err != nil {
		return err
	}
	if a.Env.CPUModel != b.Env.CPUModel || a.Env.GOMAXPROCS != b.Env.GOMAXPROCS ||
		a.Env.Seed != b.Env.Seed || a.Env.Seconds != b.Env.Seconds {
		return fmt.Errorf("not comparable: %q GOMAXPROCS=%d seed=%d seconds=%g vs %q GOMAXPROCS=%d seed=%d seconds=%g",
			a.Env.CPUModel, a.Env.GOMAXPROCS, a.Env.Seed, a.Env.Seconds,
			b.Env.CPUModel, b.Env.GOMAXPROCS, b.Env.Seed, b.Env.Seconds)
	}
	other := map[string]*result{}
	for _, r := range b.Workloads {
		other[r.Workload] = r
	}
	var problems []string
	problem := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}
	fmt.Printf("%-14s %-18s %14s %14s %8s %7s\n", "workload", "metric", pathA, pathB, "worse", "bound")
	for _, ra := range a.Workloads {
		rb, ok := other[ra.Workload]
		if !ok {
			problem("%s: missing from %s", ra.Workload, pathB)
			continue
		}
		if ra.Traced != rb.Traced {
			problem("%s: one run is traced, the other is not", ra.Workload)
			continue
		}
		if ra.Failed+rb.Failed > 0 {
			problem("%s: failed ops (%d and %d)", ra.Workload, ra.Failed, rb.Failed)
		}
		if ra.Noisy || rb.Noisy {
			fmt.Printf("%-14s measured on a noisy machine\n", ra.Workload)
		}
		declared := endToEnd
		if ra.Traced {
			declared = perLayer
		}
		for _, m := range declared {
			va, okA := ra.Metrics[m.Name]
			vb, okB := rb.Metrics[m.Name]
			if !okA || !okB {
				problem("%s: %s missing", ra.Workload, m.Name)
				continue
			}
			worse := ratio(vb.Value-va.Value, va.Value)
			if m.Better == "higher" {
				worse = -worse
			}
			flag := ""
			if m.Bound > 0 && worse > m.Bound {
				flag = "  EXCEEDS"
				problem("%s: %s worse by %.1f%% (bound %.0f%%)", ra.Workload, m.Name, 100*worse, 100*m.Bound)
			}
			if m.Bound > 0 {
				fmt.Printf("%-14s %-18s %14.6g %14.6g %+7.1f%% %6.0f%%%s\n",
					ra.Workload, m.Name, va.Value, vb.Value, 100*worse, 100*m.Bound, flag)
			} else {
				fmt.Printf("%-14s %-30s %14.6g %14.6g %+7.1f%%\n", ra.Workload, m.Name, va.Value, vb.Value, 100*worse)
			}
		}
		for key, rec := range ra.Inputs {
			if got, ok := rb.Inputs[key]; ok && !rec.same(got) {
				problem("%s: input %s: %+v vs %+v", ra.Workload, key, rec, got)
			}
		}
	}
	for _, p := range problems {
		fmt.Println("FAIL", p)
	}
	if len(problems) > 0 {
		return fmt.Errorf("%d differences beyond the bounds", len(problems))
	}
	fmt.Println("runs agree within the bounds; every input both optimized came out the same")
	return nil
}
