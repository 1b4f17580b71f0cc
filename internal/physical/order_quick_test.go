package physical

import (
	"testing"
	"testing/quick"

	"repro/internal/expr"
)

// mkOrder builds an order of up to 4 columns from a seed.
func mkOrder(seed uint32) Order {
	cols := []expr.Col{
		{Alias: "g1", Column: "a"},
		{Alias: "g1", Column: "b"},
		{Alias: "g2", Column: "c"},
		{Alias: "g2", Column: "d"},
	}
	n := int(seed % 5)
	var o Order
	for i := 0; i < n; i++ {
		o = append(o, cols[int(seed>>(2*uint(i)))%len(cols)])
	}
	return o
}

func TestOrderSatisfiesReflexive(t *testing.T) {
	f := func(seed uint32) bool {
		o := mkOrder(seed)
		return o.Satisfies(o)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestOrderSatisfiesPrefixTransitive(t *testing.T) {
	// If o satisfies p and p satisfies q then o satisfies q.
	f := func(seed uint32, cut1, cut2 uint8) bool {
		o := mkOrder(seed)
		p := o[:int(cut1)%(len(o)+1)]
		q := p[:int(cut2)%(len(p)+1)]
		return o.Satisfies(p) && p.Satisfies(q) && o.Satisfies(q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestOrderEverySatisfiesNil(t *testing.T) {
	f := func(seed uint32) bool { return mkOrder(seed).Satisfies(nil) }
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestOrderKeyInjectiveOnSamples(t *testing.T) {
	seen := map[string]string{}
	for seed := uint32(0); seed < 4000; seed++ {
		o := mkOrder(seed)
		repr := ""
		for _, c := range o {
			repr += c.String() + ";"
		}
		if prev, ok := seen[o.Key()]; ok && prev != repr {
			t.Fatalf("Order.Key collision: %q vs %q", prev, repr)
		}
		seen[o.Key()] = repr
	}
}

// renderedLess is String's order on every pair drawn from aliases that are
// prefixes of each other ("g1", "g10", "g1.") and columns around '.'.
func TestRenderedLessIsStringOrder(t *testing.T) {
	aliases := []string{"", "g", "g1", "g10", "g1.", "g1-", "g1/", "g2", "h"}
	columns := []string{"", "a", "b", ".", "-", "/", "0", "a.b"}
	var cols []expr.Col
	for _, a := range aliases {
		for _, c := range columns {
			cols = append(cols, expr.Col{Alias: a, Column: c})
		}
	}
	for _, a := range cols {
		for _, b := range cols {
			if got, want := renderedLess(a, b), a.String() < b.String(); got != want {
				t.Fatalf("renderedLess(%q, %q) = %t, want %t", a.String(), b.String(), got, want)
			}
		}
	}
}

// fnv64.u64 folds the rounds over a value's zero high bytes; the hash is
// byte-wise FNV-1a over all eight bytes.
func TestFNV64FoldsZeroBytes(t *testing.T) {
	ref := func(h, v uint64) uint64 {
		for i := 0; i < 8; i++ {
			h ^= (v >> uint(8*i)) & 0xff
			h *= fnvPrime
		}
		return h
	}
	check := func(seed, v uint64, shift uint8) bool {
		v >>= shift % 64 // as many zero high bytes as low ones
		h := fnv64(seed)
		h.u64(v)
		return uint64(h) == ref(seed, v)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint64{0, 1, 0xff, 0x100, 0xff00, 1 << 63, ^uint64(0)} {
		if !check(14695981039346656037, v, 0) {
			t.Fatalf("u64(%#x) differs from byte-wise FNV-1a", v)
		}
	}
}
