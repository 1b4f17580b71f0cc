package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro"
	"repro/internal/logical"
)

// selfJoinSQL joins n aliases of orders on the key: one block of n sources.
func selfJoinSQL(n int) string {
	var from, where []string
	for i := 0; i < n; i++ {
		from = append(from, fmt.Sprintf("orders o%d", i))
		if i > 0 {
			where = append(where, fmt.Sprintf("o0.orderkey = o%d.orderkey", i))
		}
	}
	return "SELECT * FROM " + strings.Join(from, ", ") + " WHERE " + strings.Join(where, " AND ")
}

// TestOversizeBlockIs400: the DAG builder enumerates 2^n subsets of a
// block's n sources, so the count is bounded on the way in. A 30-alias FROM
// list — an 8 GB table of group slots when nothing bounded it — is refused
// as the request's own fault before anything is allocated for it, and the
// bound itself is served.
func TestOversizeBlockIs400(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	post := func(n int) (*http.Response, []byte) {
		body, err := json.Marshal(map[string]any{"sql": selfJoinSQL(n)})
		if err != nil {
			t.Fatal(err)
		}
		return postOptimize(t, ts.URL, string(body), nil)
	}
	if resp, data := post(4); resp.StatusCode != http.StatusOK { // warms the pool and the connection
		t.Fatalf("4 sources: status %d: %s", resp.StatusCode, data)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resp, data := post(30)
	runtime.ReadMemStats(&after)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "sources") {
		t.Fatalf("30 sources: status %d: %s", resp.StatusCode, data)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d > 1<<20 {
		t.Fatalf("the rejected request allocated %d bytes", d)
	}
	if resp, data := post(logical.MaxBlockSources + 1); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("%d sources: status %d: %s", logical.MaxBlockSources+1, resp.StatusCode, data)
	}
	if resp, data := post(logical.MaxBlockSources); resp.StatusCode != http.StatusOK {
		t.Fatalf("%d sources: status %d: %s", logical.MaxBlockSources, resp.StatusCode, data)
	}
}

// TestAddSessionStatsCoversEveryField: the retired aggregate is
// SessionStats.Add, a field-by-field sum written out by hand; a field it
// forgets silently vanishes from /v1/stats when its session is evicted (the
// build counters did). Every numeric field must come out doubled, except the
// ones named here as not additive.
func TestAddSessionStatsCoversEveryField(t *testing.T) {
	notAdditive := map[string]bool{
		"CompiledNodes": true, // a gauge of what a live session holds: a retired one holds nothing
	}
	var src repro.SessionStats
	v := reflect.ValueOf(&src).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if !f.CanInt() {
			t.Fatalf("SessionStats.%s is a %s: teach this test (and SessionStats.Add) about it", v.Type().Field(i).Name, f.Kind())
		}
		f.SetInt(int64(i + 1))
	}
	var dst repro.SessionStats
	dst.Add(src)
	dst.Add(src)
	d := reflect.ValueOf(dst)
	for i := 0; i < d.NumField(); i++ {
		name, want := d.Type().Field(i).Name, int64(2*(i+1))
		if notAdditive[name] {
			want = 0
		}
		if got := d.Field(i).Int(); got != want {
			t.Errorf("SessionStats.Add on %s: two sessions with %d each give %d, want %d", name, i+1, got, want)
		}
	}
}

// TestStatsReportCompiledReuse: /v1/stats says how often a pooled session
// was spared a build and what it holds for that, and an evicted session's
// build accounting survives in the retired aggregate.
func TestStatsReportCompiledReuse(t *testing.T) {
	srv := New(Config{PoolSize: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body := specBody(t, nil)
	for i := 0; i < 3; i++ {
		if resp, data := postOptimize(t, ts.URL, body, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
	}
	stats := func() (st StatsResponse, raw string) {
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		return st, string(data)
	}
	st, raw := stats()
	if len(st.Pool) != 1 {
		t.Fatalf("pool has %d sessions", len(st.Pool))
	}
	s := st.Pool[0].Session
	if s.CompiledMisses != 1 || s.CompiledHits != 2 || s.CompiledNodes == 0 || s.RecipeHits != 2*s.RecipeMisses {
		t.Fatalf("three identical requests: compiled %d misses / %d hits / %d nodes, recipe %d / %d",
			s.CompiledMisses, s.CompiledHits, s.CompiledNodes, s.RecipeMisses, s.RecipeHits)
	}
	for _, field := range []string{`"compiled_hits":2`, `"compiled_misses":1`, `"compiled_nodes":`} {
		if !strings.Contains(raw, field) {
			t.Errorf("/v1/stats lacks %s", field)
		}
	}
	// Another catalog evicts the session (PoolSize 1).
	if resp, data := postOptimize(t, ts.URL, specBody(t, map[string]any{"sf": 10}), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	st, _ = stats()
	r := st.Retired
	if st.RetiredCount != 1 || r.CompiledMisses != 1 || r.CompiledHits != 2 || r.RecipeHits != s.RecipeHits || r.RecipeMisses != s.RecipeMisses {
		t.Fatalf("retired aggregate after the eviction: %+v", r)
	}
	if r.CompiledNodes != 0 {
		t.Fatalf("retired aggregate reports %d compiled nodes: the evicted session's were dropped with it", r.CompiledNodes)
	}
}
