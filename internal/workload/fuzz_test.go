package workload

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/strictjson"
)

// decodeSpec parses one JSON-encoded Spec as the serving front end does
// (strictjson, then Validate): unknown fields, trailing garbage, malformed
// JSON and out-of-range knobs all return an error, never a panic, so the
// front end can map any failure to a 4xx. The returned spec is ready for
// Generate.
func decodeSpec(data []byte) (Spec, error) {
	var s Spec
	if err := strictjson.Decode(data, &s); err != nil {
		return Spec{}, fmt.Errorf("workload: decoding spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// FuzzWorkloadSpec fuzzes the wire-format spec decoder: arbitrary bytes
// must either decode into a valid Spec or return an error — never panic —
// and everything that decodes must survive a marshal/decode round trip
// unchanged. Small accepted specs must also actually generate. The seed
// corpus under testdata/fuzz/FuzzWorkloadSpec pins the interesting
// boundaries (every shape name, knob extremes, strict-mode rejections).
func FuzzWorkloadSpec(f *testing.F) {
	seeds := []string{
		`{"queries": 4, "fan_out": 3, "shape": "star"}`,
		`{"seed": 42, "queries": 16, "shape": "mixed", "fan_out": 8, "sharing": 1, "select_frac": 0.5, "agg_frac": 0.25}`,
		`{"queries": 1, "fan_out": 2, "shape": "chain", "sharing": 0}`,
		`{"queries": 2, "fan_out": 7, "shape": "snowflake"}`,
		`{"queries": 2, "fan_out": 2, "shape": "donut"}`,             // unknown shape
		`{"queries": 2, "fan_out": 2, "turbo": true}`,                // unknown field
		`{"queries": 0, "fan_out": 2}`,                               // out of range
		`{"queries": 2, "fan_out": 9, "shape": "star"}`,              // fan-out beyond template
		`{"queries": 2, "fan_out": 2, "sharing": 1.5}`,               // knob out of [0,1]
		`{"queries": 2, "fan_out": 2, "sharing": "half"}`,            // type mismatch
		`{"queries": 2, "fan_out": 2} trailing`,                      // trailing data
		`{"seed": -9223372036854775808, "queries": 2, "fan_out": 2}`, // extreme seed
		`[]`,
		`null`,
		`{`,
		``,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := decodeSpec(data)
		if err != nil {
			return // rejected input; the front end maps this to a 4xx
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("decodeSpec accepted an invalid spec %+v: %v", spec, err)
		}
		out, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("marshalling accepted spec %+v: %v", spec, err)
		}
		spec2, err := decodeSpec(out)
		if err != nil {
			t.Fatalf("round trip of %s rejected: %v", out, err)
		}
		if spec2 != spec {
			t.Fatalf("round trip changed the spec: %+v -> %+v", spec, spec2)
		}
		// Small accepted specs must generate; bound the size so the fuzzer
		// cannot turn the generator into an OOM test.
		if spec.Queries <= 4 {
			if _, err := Generate(spec); err != nil {
				t.Fatalf("valid spec %+v failed to generate: %v", spec, err)
			}
		}
	})
}
