package memo

import (
	"fmt"
	"testing"

	"repro/internal/cost"
	"repro/internal/logical"
)

// Invalid queries must still be rejected with the cache attached, and a
// rejected batch is neither held nor counted.
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

// buildBlock bounds its own 1<<n table, whoever calls it.
func TestBuildBlockChecksSources(t *testing.T) {
	bb := logical.NewBlock().Scan("t1", "a0")
	for i := 1; i <= logical.MaxBlockSources; i++ {
		a := fmt.Sprintf("a%d", i)
		bb.Scan("t1", a).Join("a0.id", a+".id")
	}
	if _, err := New(testCatalog(), cost.Default()).buildBlock(bb.Build()); err == nil {
		t.Fatalf("buildBlock expanded a block of %d sources", logical.MaxBlockSources+1)
	}
}
