package submod

import "math/rand"

// ProfittedMaxCoverage is Problem 1 of the paper — the instance family used
// in the Theorem 2 hardness construction:
//
//	f_M(A) = ((γ+1)/γ)·|∪A|/n,   c(A) = (1/γ)·|A|/l,   f = f_M − c.
//
// When l sets cover the ground set exactly, the optimum value is 1 with
// f(Θ)/c(Θ) = γ, so instances with known planted covers let us check the
// Theorem 1 guarantee empirically.
type ProfittedMaxCoverage struct {
	Sets    [][]int
	GroundN int
	Gamma   float64
	L       int
}

// N returns the number of sets.
func (p *ProfittedMaxCoverage) N() int { return len(p.Sets) }

// Eval returns f(A).
func (p *ProfittedMaxCoverage) Eval(a Set) float64 {
	covered := map[int]bool{}
	a.ForEach(func(i int) {
		for _, g := range p.Sets[i] {
			covered[g] = true
		}
	})
	fm := (p.Gamma + 1) / p.Gamma * float64(len(covered)) / float64(p.GroundN)
	c := float64(a.Len()) / (p.Gamma * float64(p.L))
	return fm - c
}

// ExplicitCosts returns the additive costs c({e}) = 1/(γ·l) of the
// problem's own decomposition (every set costs the same).
func (p *ProfittedMaxCoverage) ExplicitCosts() []float64 {
	out := make([]float64, p.N())
	for i := range out {
		out[i] = 1 / (p.Gamma * float64(p.L))
	}
	return out
}

// PlantedInstance builds a Profitted Max Coverage instance with a planted
// optimal cover: the ground set of size groundN is partitioned into l
// planted sets (so optimal value 1 is achievable), plus extra random
// overlapping sets that a greedy algorithm may be tempted by.
func PlantedInstance(seed int64, groundN, l, extraSets, extraSize int, gamma float64) *ProfittedMaxCoverage {
	r := rand.New(rand.NewSource(seed))
	p := &ProfittedMaxCoverage{GroundN: groundN, Gamma: gamma, L: l}
	perm := r.Perm(groundN)
	per := groundN / l
	for i := 0; i < l; i++ {
		lo := i * per
		hi := lo + per
		if i == l-1 {
			hi = groundN
		}
		p.Sets = append(p.Sets, append([]int(nil), perm[lo:hi]...))
	}
	for i := 0; i < extraSets; i++ {
		seen := map[int]bool{}
		var s []int
		for len(s) < extraSize {
			g := r.Intn(groundN)
			if !seen[g] {
				seen[g] = true
				s = append(s, g)
			}
		}
		p.Sets = append(p.Sets, s)
	}
	return p
}
