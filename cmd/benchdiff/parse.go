package main

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// Runs is parsed `go test -bench` output: per benchmark name (GOMAXPROCS
// suffix stripped, so the names of runs at different GOMAXPROCS meet), one
// entry per result line, each the line's reported values by unit — every
// unit but ns/op, which is a clock.
type Runs map[string][]map[string]float64

// Parse reads `go test -bench` output. Lines other than benchmark result
// lines (headers, PASS, ok, logs) are ignored.
func Parse(r io.Reader) (Runs, error) {
	runs := Runs{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		if name, vals, ok := parseBenchLine(sc.Text()); ok {
			runs[name] = append(runs[name], vals)
		}
	}
	return runs, sc.Err()
}

// parseBenchLine extracts the values of one result line of the form
//
//	BenchmarkName[-8]  <iterations>  <value> ns/op  [<value> <unit> ...]
func parseBenchLine(line string) (name string, vals map[string]float64, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", nil, false
	}
	if _, err := strconv.Atoi(fields[1]); err != nil {
		return "", nil, false // iteration count must be an integer
	}
	name = fields[0]
	// Strip the -GOMAXPROCS suffix from the last path element only.
	if i := strings.LastIndex(name, "-"); i > 0 && !strings.Contains(name[i:], "/") {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	vals = map[string]float64{}
	for i := 2; i+1 < len(fields); i++ {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		if fields[i+1] == "ns/op" {
			ok = true
		} else {
			vals[fields[i+1]] = v
		}
		i++
	}
	return name, vals, ok
}
