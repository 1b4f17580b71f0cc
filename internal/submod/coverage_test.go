package submod

import "math/rand"

// Coverage is a weighted coverage function with additive element costs:
// f(A) = w·|∪_{i∈A} S_i| − Σ_{i∈A} cost_i. It is normalized, submodular
// and generally non-monotone — the standard test family for UNSM, and the
// shape of the MQO materialization-benefit function (shared work covered
// minus materialization cost).
type Coverage struct {
	Sets    [][]int // Sets[i] lists the ground elements covered by set i
	GroundN int
	Weight  float64
	Costs   []float64
}

// N returns the number of sets.
func (c *Coverage) N() int { return len(c.Sets) }

// Eval returns f(A). Costs are summed in sorted element order so equal
// sets evaluate bit-identically regardless of how they were built.
func (c *Coverage) Eval(a Set) float64 {
	covered := make(map[int]bool)
	total := 0.0
	for _, i := range a.Sorted() {
		for _, g := range c.Sets[i] {
			covered[g] = true
		}
		total -= c.Costs[i]
	}
	return total + c.Weight*float64(len(covered))
}

// RandomCoverage generates a deterministic random coverage instance:
// n sets over a ground set of groundN elements, each set covering
// setSize random elements, with costs uniform in [0, maxCost).
func RandomCoverage(seed int64, n, groundN, setSize int, weight, maxCost float64) *Coverage {
	r := rand.New(rand.NewSource(seed))
	c := &Coverage{GroundN: groundN, Weight: weight}
	for i := 0; i < n; i++ {
		seen := map[int]bool{}
		var s []int
		for len(s) < setSize {
			g := r.Intn(groundN)
			if !seen[g] {
				seen[g] = true
				s = append(s, g)
			}
		}
		c.Sets = append(c.Sets, s)
		c.Costs = append(c.Costs, r.Float64()*maxCost)
	}
	return c
}
