package main

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// Parse reads `go test -bench` output: benchmark result lines become
// (name → minimum measurements) entries — the GOMAXPROCS suffix is
// stripped so names are stable across machines, and kept as the snapshot's
// GOMAXPROCS (no suffix is 1) — and the goos/goarch/cpu header lines are
// carried into the snapshot. Besides ns/op, the deterministic bc_calls
// metric is captured when a benchmark reports it. Unrelated lines (PASS, ok,
// metrics-only noise) are ignored.
func Parse(r io.Reader) (*Snapshot, error) {
	snap := &Snapshot{Benchmarks: map[string]Bench{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			snap.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			snap.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			snap.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		name, b, procs, ok := parseBenchLine(line)
		if !ok {
			continue
		}
		snap.GOMAXPROCS = max(snap.GOMAXPROCS, procs)
		if old, seen := snap.Benchmarks[name]; seen {
			if old.NsPerOp < b.NsPerOp {
				b.NsPerOp = old.NsPerOp
			}
			if old.BCCalls > 0 && (b.BCCalls == 0 || old.BCCalls < b.BCCalls) {
				b.BCCalls = old.BCCalls
			}
		}
		snap.Benchmarks[name] = b
	}
	return snap, sc.Err()
}

// parseBenchLine extracts the measurements from one result line of the form
//
//	BenchmarkName[-8]  <iterations>  <value> ns/op  [<value> bc_calls ...]
func parseBenchLine(line string) (name string, b Bench, procs int, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return "", Bench{}, 0, false
	}
	name, procs = fields[0], 1
	// Strip the -GOMAXPROCS suffix from the last path element only.
	if i := strings.LastIndex(name, "-"); i > 0 && !strings.Contains(name[i:], "/") {
		if p, err := strconv.Atoi(name[i+1:]); err == nil {
			name, procs = name[:i], p
		}
	}
	if _, err := strconv.Atoi(fields[1]); err != nil {
		return "", Bench{}, 0, false // iteration count must be an integer
	}
	for i := 2; i+1 < len(fields); i++ {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			b.NsPerOp = v
		case "bc_calls":
			b.BCCalls = v
		}
	}
	if b.NsPerOp == 0 {
		return "", Bench{}, 0, false
	}
	return name, b, procs, true
}
