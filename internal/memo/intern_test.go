package memo

import (
	"fmt"
	"testing"

	"repro/internal/cost"
	"repro/internal/expr"
	"repro/internal/logical"
)

// Invalid queries must still be rejected with the cache attached, both on
// the record path and (structurally different key) never via a stale hit.
func TestInternedBuildStillValidates(t *testing.T) {
	bad := logical.NewBlock().Scan("nope", "a").Query("bad")
	b := &logical.Batch{}
	b.Add(bad)
	cache := NewBuildCache()
	if _, err := Build(testCatalog(), cost.Default(), b, WithBuildCache(cache)); err == nil {
		t.Fatalf("invalid query accepted with build cache attached")
	}
	if hits, misses := cache.Stats(); hits != 0 || misses != 0 {
		t.Fatalf("rejected query was recorded: hits=%d misses=%d", hits, misses)
	}
}

// The FIFO ring must bound the cache and keep serving correct results
// after evictions.
func TestBuildCacheEviction(t *testing.T) {
	cache := NewBuildCache()
	cache.max = 4
	for i := 0; i < 10; i++ {
		q := logical.NewBlock().Scan("t1", "a").Scan("t2", "b").
			Cmp("a.v", expr.LT, float64(i)).
			Join("a.fk", "b.id").Query("q")
		b := &logical.Batch{}
		b.Add(q)
		m, err := Build(testCatalog(), cost.Default(), b, WithBuildCache(cache))
		if err != nil {
			t.Fatalf("Build %d: %v", i, err)
		}
		if m.NumGroups() == 0 {
			t.Fatalf("Build %d: empty memo", i)
		}
	}
	cache.mu.Lock()
	n := len(cache.validated)
	cache.mu.Unlock()
	if n > 4 {
		t.Fatalf("cache grew past cap: %d entries", n)
	}
}

// buildBlock bounds its own 1<<n table: a query whose fingerprint the cache
// has validated never reaches Query.Validate, and a nested block is only
// ever seen here.
func TestBuildBlockChecksSources(t *testing.T) {
	bb := logical.NewBlock().Scan("t1", "a0")
	for i := 1; i <= logical.MaxBlockSources; i++ {
		a := fmt.Sprintf("a%d", i)
		bb.Scan("t1", a).Join("a0.id", a+".id")
	}
	if _, err := New(testCatalog(), cost.Default()).buildBlock(bb.Build(), "q0"); err == nil {
		t.Fatalf("buildBlock expanded a block of %d sources", logical.MaxBlockSources+1)
	}
}
