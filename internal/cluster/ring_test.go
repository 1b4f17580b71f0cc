package cluster

import (
	"fmt"
	"reflect"
	"testing"
)

// TestRingDeterministicAcrossInputOrder: the ring is a pure function of
// the member set — input order and duplicates must not change any key's
// preference order, or independent routers would disagree on placement.
func TestRingDeterministicAcrossInputOrder(t *testing.T) {
	a := NewRing([]string{"http://a", "http://b", "http://c"})
	b := NewRing([]string{"http://c", "http://a", "http://b", "http://a"})
	if !reflect.DeepEqual(a.Replicas(), b.Replicas()) {
		t.Fatalf("member lists differ: %v vs %v", a.Replicas(), b.Replicas())
	}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("tenant%d|sf=%d", i%17, i%3)
		oa, ob := a.Order(key), b.Order(key)
		if !reflect.DeepEqual(oa, ob) {
			t.Fatalf("Order(%q) differs across input orders: %v vs %v", key, oa, ob)
		}
	}
}

// TestRingOrderCoversAllReplicas: Order is a full preference order —
// every member exactly once, primary first.
func TestRingOrderCoversAllReplicas(t *testing.T) {
	members := []string{"http://a", "http://b", "http://c", "http://d", "http://e"}
	r := NewRing(members)
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("key-%d", i)
		o := r.Order(key)
		if len(o) != len(members) {
			t.Fatalf("Order(%q) has %d entries, want %d: %v", key, len(o), len(members), o)
		}
		seen := make(map[string]bool)
		for _, rep := range o {
			if seen[rep] {
				t.Fatalf("Order(%q) repeats %s: %v", key, rep, o)
			}
			seen[rep] = true
		}
		if r.Owner(key) != o[0] {
			t.Fatalf("Owner(%q) = %s, Order starts with %s", key, r.Owner(key), o[0])
		}
	}
}

// TestRingDistribution: with 64 vnodes and 3 replicas no replica owns a
// wildly unfair share of a large key population.
func TestRingDistribution(t *testing.T) {
	r := NewRing([]string{"http://a", "http://b", "http://c"})
	counts := make(map[string]int)
	const n = 9000
	for i := 0; i < n; i++ {
		counts[r.Owner(fmt.Sprintf("tenant-%d|sf=1", i))]++
	}
	for rep, c := range counts {
		frac := float64(c) / n
		if frac < 0.15 || frac > 0.55 {
			t.Errorf("%s owns %.1f%% of keys (counts %v), outside the sane band", rep, 100*frac, counts)
		}
	}
	if len(counts) != 3 {
		t.Fatalf("only %d replicas own keys: %v", len(counts), counts)
	}
}

// TestRingMembershipMinimalMovement: removing one replica must re-home
// only the keys it owned; every other key keeps its owner. This is the
// property that makes membership change cheap for cache warmth.
func TestRingMembershipMinimalMovement(t *testing.T) {
	full := NewRing([]string{"http://a", "http://b", "http://c", "http://d"})
	reduced := NewRing([]string{"http://d", "http://b", "http://a"}) // c removed, order shuffled
	moved, kept := 0, 0
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("k%d", i)
		before, after := full.Owner(key), reduced.Owner(key)
		if before == "http://c" {
			if after == "http://c" {
				t.Fatalf("removed replica still owns %q", key)
			}
			// The key's new home must be its old first fallback.
			if want := full.Order(key)[1]; after != want {
				t.Errorf("key %q moved to %s, want its old fallback %s", key, after, want)
			}
			moved++
			continue
		}
		if before != after {
			t.Errorf("key %q moved %s → %s though its owner never left", key, before, after)
		}
		kept++
	}
	if moved == 0 || kept == 0 {
		t.Fatalf("degenerate sample: moved=%d kept=%d", moved, kept)
	}
}

// TestRingEdgeCases: empty and single-member rings behave.
func TestRingEdgeCases(t *testing.T) {
	empty := NewRing(nil)
	if o := empty.Order("x"); o != nil {
		t.Errorf("empty ring Order = %v", o)
	}
	if empty.Owner("x") != "" {
		t.Errorf("empty ring Owner = %q", empty.Owner("x"))
	}
	one := NewRing([]string{"http://only"})
	for _, key := range []string{"a", "b", ""} {
		if got := one.Owner(key); got != "http://only" {
			t.Errorf("single ring Owner(%q) = %q", key, got)
		}
	}
}
