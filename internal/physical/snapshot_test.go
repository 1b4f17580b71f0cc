package physical

import (
	"bytes"
	"errors"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/memo"
	"repro/internal/tpcd"
	"repro/internal/workload"
)

// seedCache fills a cache with a deterministic mix of cost and benefit
// entries across two namespaces.
func seedCache() *SharedCache {
	c := NewSharedCache()
	var kvs []sharedKV
	for g := 0; g < 5; g++ {
		for ord := 0; ord < 2; ord++ {
			for m := uint64(0); m < 8; m++ {
				kvs = append(kvs, sharedKV{
					k: cacheKey{g: memo.GroupID(g), ord: ordID(ord), compute: m%2 == 0, mask: m * 0x9e3779b97f4a7c15},
					v: float64(g*100+ord*10) + float64(m)/7,
				})
			}
		}
	}
	seedCosts(c, 0x1111222233334444, cellIndex{}, kvs)
	seedCosts(c, 0xaaaabbbbccccdddd, cellIndex{}, kvs[:20])
	for i := 0; i < 12; i++ {
		c.PutBenefit(0x1111222233334444, uint64(i)*0x2545f4914f6cdd1d, math.Sqrt(float64(i+1)))
	}
	return c
}

func TestSnapshotRoundTripByteStable(t *testing.T) {
	c := seedCache()
	snap := c.Export("sf=1")
	enc1, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}

	// Decode → re-encode is byte-identical (canonical form is a fixpoint).
	dec, err := DecodeCacheSnapshot(enc1)
	if err != nil {
		t.Fatalf("decode of own export: %v", err)
	}
	enc2, err := dec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc1, enc2) {
		t.Fatal("decode→encode of an export is not byte-identical")
	}

	// Import into a fresh cache → export is byte-identical too, and the
	// entry count round-trips.
	c2 := NewSharedCache()
	n, err := c2.Import(dec, "sf=1")
	if err != nil {
		t.Fatal(err)
	}
	if want := c.Len(); n != want || c2.Len() != want {
		t.Fatalf("imported %d entries into a cache of %d, want %d", n, c2.Len(), want)
	}
	enc3, err := c2.Export("sf=1").Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc1, enc3) {
		t.Fatal("export of an imported cache is not byte-identical to the original export")
	}

	// Every individual value survives: spot-check the benefit entries.
	for i := 0; i < 12; i++ {
		k := uint64(i) * 0x2545f4914f6cdd1d
		v, ok := c2.GetBenefit(0x1111222233334444, k)
		if !ok || v != math.Sqrt(float64(i+1)) {
			t.Fatalf("benefit %d = (%v, %v) after round trip", i, v, ok)
		}
	}
}

func TestSnapshotScopeAndVersionMismatch(t *testing.T) {
	snap := seedCache().Export("sf=1")

	c := NewSharedCache()
	if _, err := c.Import(snap, "sf=2"); !isSnapErr(err, "scope") {
		t.Fatalf("scope mismatch import = %v, want *SnapshotError{scope}", err)
	}
	if c.Len() != 0 {
		t.Fatal("rejected import still merged entries")
	}

	bad := *snap
	bad.Version = 2
	if _, err := c.Import(&bad, "sf=1"); !isSnapErr(err, "version") {
		t.Fatalf("version mismatch import = %v, want *SnapshotError{version}", err)
	}
	if _, err := c.Import(nil, "sf=1"); !isSnapErr(err, "malformed") {
		t.Fatalf("nil snapshot import = %v, want *SnapshotError{malformed}", err)
	}
}

func isSnapErr(err error, reason string) bool {
	var se *SnapshotError
	return errors.As(err, &se) && se.Reason == reason
}

func TestSnapshotDecodeRejectsTampering(t *testing.T) {
	enc, err := seedCache().Export("sf=1").Encode()
	if err != nil {
		t.Fatal(err)
	}
	s := string(enc)
	cases := []struct {
		name, data, reason string
	}{
		{"not json", "{", "malformed"},
		{"unknown field", strings.Replace(s, `"version"`, `"bogus": 1, "version"`, 1), "malformed"},
		{"wrong version", strings.Replace(s, `"version": 1`, `"version": 9`, 1), "version"},
		{"bad checksum", flipLastHexDigit(t, s, `"checksum"`), "checksum"},
		{"bad hex width", strings.Replace(s, `"ns": "1111222233334444"`, `"ns": "111122223333444"`, 1), "malformed"},
		{"uppercase hex", strings.Replace(s, `"ns": "1111222233334444"`, `"ns": "111122223333444A"`, 1), "malformed"},
		{"value tamper", flipLastHexDigit(t, s, `"v"`), "checksum"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeCacheSnapshot([]byte(tc.data))
			if !isSnapErr(err, tc.reason) {
				t.Fatalf("decode = %v, want *SnapshotError{%s}", err, tc.reason)
			}
		})
	}
}

// flipLastHexDigit flips one hex digit of the first string value following
// the given JSON key, invalidating its content without breaking JSON.
func flipLastHexDigit(t *testing.T, s, key string) string {
	t.Helper()
	i := strings.Index(s, key)
	if i < 0 {
		t.Fatalf("key %s not found", key)
	}
	q := strings.Index(s[i+len(key):], `: "`)
	start := i + len(key) + q + 3
	end := strings.Index(s[start:], `"`) + start
	c := s[end-1]
	repl := byte('0')
	if c == '0' {
		repl = '1'
	}
	return s[:end-1] + string(repl) + s[end:]
}

func TestSnapshotOutOfOrderRejected(t *testing.T) {
	c := seedCache()
	snap := c.Export("sf=1")
	if len(snap.Namespaces) < 2 {
		t.Fatal("seed cache has fewer than 2 namespaces")
	}
	snap.Namespaces[0], snap.Namespaces[1] = snap.Namespaces[1], snap.Namespaces[0]
	snap.Checksum = snap.checksum() // valid checksum, wrong order
	enc, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCacheSnapshot(enc); !isSnapErr(err, "malformed") {
		t.Fatalf("out-of-order namespaces decode = %v, want *SnapshotError{malformed}", err)
	}

	snap = c.Export("sf=1")
	es := snap.Namespaces[0].Entries
	if len(es) < 2 {
		t.Fatal("first namespace has fewer than 2 entries")
	}
	es[0], es[1] = es[1], es[0]
	snap.Checksum = snap.checksum()
	enc, err = snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCacheSnapshot(enc); !isSnapErr(err, "malformed") {
		t.Fatalf("out-of-order entries decode = %v, want *SnapshotError{malformed}", err)
	}
}

// TestSnapshotEmptyNamespaceRejected: Export never emits a namespace
// without entries, so one on the wire is not canonical — an importer would
// drop it and export something else.
func TestSnapshotEmptyNamespaceRejected(t *testing.T) {
	snap := seedCache().Export("sf=1")
	snap.Namespaces = append(snap.Namespaces, SnapshotNamespace{NS: "ffffffffffffffff", Entries: []SnapshotEntry{}})
	snap.Checksum = snap.checksum()
	enc, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCacheSnapshot(enc); !isSnapErr(err, "malformed") {
		t.Fatalf("empty namespace decode = %v, want *SnapshotError{malformed}", err)
	}
}

// TestSnapshotFoldKeepsExport: entries imported before any searcher of
// their namespace was seen are held without a table (the cell index is
// not on the wire); the first resolve folds them into one. The export must
// not notice — and the folded table must serve every key.
func TestSnapshotFoldKeepsExport(t *testing.T) {
	c := seedCache()
	before, err := c.Export("sf=1").Encode()
	if err != nil {
		t.Fatal(err)
	}
	const ns = uint64(0x1111222233334444)
	if c.spaces[ns].slots != nil {
		t.Fatal("an import without a searcher built a table")
	}
	tab, _ := c.resolve(ns, gridIndex(5, 2))
	if tab == nil {
		t.Fatal("resolve did not fold the held entries into a table")
	}
	if c.spaces[ns].held != nil {
		t.Fatal("held entries survived the fold")
	}
	after, err := c.Export("sf=1").Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("export changed when the held entries were folded into a table")
	}
	for g := 0; g < 5; g++ {
		for ord := 0; ord < 2; ord++ {
			for m := uint64(0); m < 8; m++ {
				i := 2 * (g*2 + ord)
				if m%2 == 0 {
					i += kindComp
				}
				want := float64(g*100+ord*10) + float64(m)/7
				if v, ok := tab[i].Load().find(m * 0x9e3779b97f4a7c15); !ok || v != want {
					t.Fatalf("folded key g=%d ord=%d m=%d: got (%v, %v), want (%v, true)", g, ord, m, v, ok, want)
				}
			}
		}
	}

	// A second import of the same snapshot adds nothing, folded or held.
	dec, err := DecodeCacheSnapshot(before)
	if err != nil {
		t.Fatal(err)
	}
	n := c.Len()
	if _, err := c.Import(dec, "sf=1"); err != nil {
		t.Fatal(err)
	}
	if got := c.Len(); got != n {
		t.Fatalf("re-importing the cache's own export grew it from %d to %d entries", n, got)
	}

	// A searcher with a smaller index than the entries assume drops the
	// keys it could never ask for instead of indexing past its table.
	small := seedCache()
	if tab, _ := small.resolve(ns, gridIndex(2, 1)); len(tab) != 4 {
		t.Fatalf("fold under a 2-group, 1-order index built %d slots", len(tab))
	}
	if got, want := small.spaces[ns].n, 2*8; got != want {
		t.Fatalf("fold kept %d entries, want the %d that have a cell", got, want)
	}
}

func TestSnapshotEmptyCache(t *testing.T) {
	snap := NewSharedCache().Export("empty")
	enc, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeCacheSnapshot(enc)
	if err != nil {
		t.Fatalf("empty snapshot does not round-trip: %v", err)
	}
	if n, err := NewSharedCache().Import(dec, "empty"); n != 0 || err != nil {
		t.Fatalf("empty import = (%d, %v)", n, err)
	}
}

// FuzzCacheSnapshot: any input either fails to decode with a typed
// *SnapshotError, or decodes to a snapshot whose re-encoding is a
// canonical fixpoint (encode → decode → encode byte-identical), whose
// import into a fresh cache succeeds with a matching entry count, and
// which that cache exports byte-identically.
func FuzzCacheSnapshot(f *testing.F) {
	// A small valid snapshot seeds the mutator (the full seedCache export
	// is covered by the unit tests; a large seed only slows the fuzzer).
	tiny := NewSharedCache()
	seedCosts(tiny, 0x1111222233334444, cellIndex{}, []sharedKV{
		{k: cacheKey{g: 1, ord: 0, mask: 0x2a}, v: 1.5},
		{k: cacheKey{g: 1, ord: 1, compute: true, mask: 0x2b}, v: -2.25},
	})
	tiny.PutBenefit(0x1111222233334444, 7, 3.5)
	enc, err := tiny.Export("sf=1").Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	small, _ := NewSharedCache().Export("s").Encode()
	f.Add(small)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":1,"scope":"x","namespaces":[],"checksum":"0000000000000000"}`))
	f.Add([]byte(strings.Replace(string(enc), `"compute": true`, `"compute": false`, 1)))
	odd := NewSharedCache()
	seedCosts(odd, 0x1111222233334444, cellIndex{}, []sharedKV{
		{k: cacheKey{g: -2, ord: 3, mask: 1}, v: 1},
		{k: cacheKey{g: benefitGroup, ord: 1, mask: 7}, v: 2},
		{k: cacheKey{g: 1 << 20, ord: -1, compute: true, mask: ^uint64(0)}, v: 3},
	})
	odd.PutBenefit(0x1111222233334444, 7, 3.5)
	odd.PutBenefit(0x5555666677778888, 9, -1)
	oddEnc, err := odd.Export("odd").Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(oddEnc)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeCacheSnapshot(data)
		if err != nil {
			var se *SnapshotError
			if !errors.As(err, &se) {
				t.Fatalf("decode error is not a *SnapshotError: %v", err)
			}
			return
		}
		enc1, err := snap.Encode()
		if err != nil {
			t.Fatalf("valid snapshot fails to encode: %v", err)
		}
		snap2, err := DecodeCacheSnapshot(enc1)
		if err != nil {
			t.Fatalf("re-encoding of a valid snapshot fails to decode: %v", err)
		}
		enc2, err := snap2.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatal("encode → decode → encode is not a fixpoint")
		}
		c := NewSharedCache()
		n, err := c.Import(snap, snap.Scope)
		if err != nil {
			t.Fatalf("valid snapshot fails to import: %v", err)
		}
		want := 0
		for _, ns := range snap.Namespaces {
			want += len(ns.Entries)
		}
		if n != want {
			t.Fatalf("import reported %d entries, snapshot carries %d", n, want)
		}
		// The importer has seen no searcher, so no namespace has a table
		// geometry yet: the entries must still export canonically.
		enc3, err := c.Export(snap.Scope).Encode()
		if err != nil {
			t.Fatal(err)
		}
		if len(snap.Namespaces) == 0 {
			snap.Namespaces = nil // Export's spelling of "none"
			enc1, _ = snap.Encode()
		}
		if !bytes.Equal(enc1, enc3) {
			t.Fatalf("import → export of a fresh cache differs from the canonical input:\n%s\nvs\n%s", enc1, enc3)
		}
	})
}

// TestSnapshotAcrossIndex: the wire format knows nothing of cells. A
// snapshot exported at the commit before the tables went from groups ×
// orders slots to cells (testdata/snapshot_pr23.json: a two-query generated
// batch, bc of three sets, published and exported there) names this build's
// namespace, is counted whole by Import, folds into a table through the
// searcher's index and serves that searcher every key. The fold drops what
// no evaluation can ask for: a key with no cell, and — since a group's use
// cost outside the set is answered by its compute key — a use-cost key of a
// group with no shareable slot, which that commit still stored. So the first
// re-export is the fixture minus exactly those entries, and every later one
// is byte-identical to it.
func TestSnapshotAcrossIndex(t *testing.T) {
	data, err := os.ReadFile("testdata/snapshot_pr23.json")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := DecodeCacheSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	m, err := memo.Build(tpcd.Catalog(1), cost.Default(), workload.MustGenerate(workload.DefaultSpec(2, 0.5)))
	if err != nil {
		t.Fatal(err)
	}
	sh := m.Shareable()
	run := func(c *SharedCache) *Searcher {
		s := NewSearcher(m)
		s.AttachSharedCache(c)
		sets := []NodeSet{{}, s.NewNodeSet(sh[0]), s.NewNodeSet(sh...)}
		sameCosts(t, "served from the imported snapshot", s, sets)
		if s.ComputedKey != 0 || s.SharedHits == 0 {
			t.Fatalf("the importer computed %d keys with %d shared hits; the snapshot covers every set", s.ComputedKey, s.SharedHits)
		}
		return s
	}
	entries := len(snap.Namespaces[0].Entries)

	// The fixture minus its use-cost keys of groups with no shareable slot.
	si := m.NewShareIndex()
	live := *snap
	live.Namespaces = []SnapshotNamespace{{NS: snap.Namespaces[0].NS}}
	for _, e := range snap.Namespaces[0].Entries {
		if e.Compute || si.Pos(memo.GroupID(e.G)) >= 0 {
			live.Namespaces[0].Entries = append(live.Namespaces[0].Entries, e)
		}
	}
	kept := len(live.Namespaces[0].Entries)
	if kept == entries {
		t.Fatal("the fixture holds no use-cost key of a group with no shareable slot: the test checks nothing")
	}
	live.Checksum = live.checksum()
	want, err := live.Encode()
	if err != nil {
		t.Fatal(err)
	}

	c := NewSharedCache()
	if n, err := c.Import(snap, "pr23"); err != nil || n != entries || c.Len() != entries {
		t.Fatalf("Import = (%d, %v), cache holds %d; the fixture carries %d entries", n, err, c.Len(), entries)
	}
	s := run(c)
	if len(snap.Namespaces) != 1 || snap.Namespaces[0].NS != hex16(s.Fingerprint()) {
		t.Fatalf("the fixture's namespace is %s, this build's searcher has %s: the structural fingerprint moved", snap.Namespaces[0].NS, hex16(s.Fingerprint()))
	}
	if c.spaces[s.Fingerprint()].held != nil || c.Len() != kept {
		t.Fatalf("the fold kept %d of %d entries, want %d (held: %t)", c.Len(), entries, kept, c.spaces[s.Fingerprint()].held != nil)
	}
	enc, _ := c.Export("pr23").Encode()
	if !bytes.Equal(enc, want) {
		t.Fatal("re-export of the folded fixture is not the fixture minus its dead use-cost keys")
	}
	again, err := DecodeCacheSnapshot(enc)
	if err != nil {
		t.Fatal(err)
	}
	c = NewSharedCache()
	if n, err := c.Import(again, "pr23"); err != nil || n != kept {
		t.Fatalf("Import of the re-export = (%d, %v), want %d", n, err, kept)
	}
	run(c)
	if enc, _ := c.Export("pr23").Encode(); !bytes.Equal(enc, want) || c.Len() != kept {
		t.Fatalf("a second round trip moved the export (%d entries, want %d)", c.Len(), kept)
	}

	// A pair inside groups × orders that no evaluation can ask for.
	stray := cacheKey{g: -1}
	for g := 0; g < m.NumGroups() && stray.g < 0; g++ {
		for ord := 0; ord < s.numOrds; ord++ {
			if _, ok := s.cells.cell(memo.GroupID(g), ordID(ord)); !ok {
				stray = cacheKey{g: memo.GroupID(g), ord: ordID(ord)}
				break
			}
		}
	}
	with := *snap
	with.Namespaces = []SnapshotNamespace{{NS: snap.Namespaces[0].NS, Entries: append(append([]SnapshotEntry(nil), snap.Namespaces[0].Entries...),
		SnapshotEntry{G: int(stray.g), Ord: int(stray.ord), Mask: hex16(7), V: hex16(math.Float64bits(1.5))})}}
	c = NewSharedCache()
	if n, err := c.Import(&with, "pr23"); err != nil || n != entries+1 || c.Len() != entries+1 {
		t.Fatalf("Import with a stray key = (%d, %v), cache holds %d; want %d counted and held", n, err, c.Len(), entries+1)
	}
	run(c)
	if c.Len() != kept {
		t.Fatalf("the fold kept %d entries, want the %d a searcher can ask for", c.Len(), kept)
	}
	if enc, _ := c.Export("pr23").Encode(); !bytes.Equal(enc, want) {
		t.Fatal("the stray key survived the fold into the export")
	}
}
