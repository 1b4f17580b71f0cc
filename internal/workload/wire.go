package workload

import (
	"encoding/json"
	"fmt"

	"repro/internal/strictjson"
)

// specWire is the JSON shape of a Spec: the shape travels by name
// ("star", "chain", "snowflake", "mixed"), everything else as plain
// numbers. It exists so the Go-side Spec can keep its typed Shape while
// the wire stays self-describing.
type specWire struct {
	Seed       int64   `json:"seed"`
	Queries    int     `json:"queries"`
	Shape      string  `json:"shape"`
	FanOut     int     `json:"fan_out"`
	Sharing    float64 `json:"sharing"`
	SelectFrac float64 `json:"select_frac"`
	AggFrac    float64 `json:"agg_frac"`
	Skew       float64 `json:"skew"`
}

// MarshalJSON renders the spec in its wire shape.
func (s Spec) MarshalJSON() ([]byte, error) {
	return json.Marshal(specWire{
		Seed:       s.Seed,
		Queries:    s.Queries,
		Shape:      s.Shape.String(),
		FanOut:     s.FanOut,
		Sharing:    s.Sharing,
		SelectFrac: s.SelectFrac,
		AggFrac:    s.AggFrac,
		Skew:       s.Skew,
	})
}

// UnmarshalJSON parses the wire shape strictly: unknown fields and unknown
// shape names are errors, so a typoed knob can never silently fall back to
// a default. An absent "shape" means Star (the zero Shape). Range checks
// beyond well-formedness stay in Validate.
func (s *Spec) UnmarshalJSON(data []byte) error {
	var w specWire
	if err := strictjson.Decode(data, &w); err != nil {
		return fmt.Errorf("workload: decoding spec: %w", err)
	}
	shape := Star
	if w.Shape != "" {
		var err error
		if shape, err = ParseShape(w.Shape); err != nil {
			return err
		}
	}
	*s = Spec{
		Seed:       w.Seed,
		Queries:    w.Queries,
		Shape:      shape,
		FanOut:     w.FanOut,
		Sharing:    w.Sharing,
		SelectFrac: w.SelectFrac,
		AggFrac:    w.AggFrac,
		Skew:       w.Skew,
	}
	return nil
}
