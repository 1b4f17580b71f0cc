package physical

import (
	"math/rand"
	"testing"
)

// TestMatOrdersPlanStillValidates: a plan that reads materializations in
// their stored orders (worker.stored) validates and totals bc(S).
func TestMatOrdersPlanStillValidates(t *testing.T) {
	s := buildSearcher(t, sharedPairQueries()...)
	sh := s.M.Shareable()
	r := rand.New(rand.NewSource(29))
	for trial := 0; trial < 15; trial++ {
		set := s.NewNodeSet()
		for _, id := range sh {
			if r.Intn(2) == 0 {
				set.Add(id)
			}
		}
		plan := s.BestPlan(set)
		if err := s.ValidatePlan(plan, set); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if diff := plan.Total - s.BestCost(set); diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("trial %d: plan total %v != bestCost %v", trial, plan.Total, s.BestCost(set))
		}
	}
}
