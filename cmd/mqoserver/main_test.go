package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/server"
)

// writeTable writes a -tenants file into a fresh directory and returns
// its path.
func writeTable(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// admits reports whether a server built over cfg lets the tenant in.
func admits(t *testing.T, cfg server.Config, tenant string) bool {
	t.Helper()
	g, err := server.New(cfg).Admission().AcquireGrant(context.Background(), server.AdmitRequest{Tenant: tenant})
	if errors.Is(err, server.ErrUnknownTenant) {
		return false
	}
	if err != nil {
		t.Fatalf("tenant %s: %v", tenant, err)
	}
	g.Release(0)
	return true
}

// TestLoadTenantsDefaultEntry: the "*" entry configures every tenant the
// table does not name and keeps the table open to unnamed tenants.
func TestLoadTenantsDefaultEntry(t *testing.T) {
	path := writeTable(t, `{
		"*":    {"max_concurrent": 2, "queue_depth": 8, "weight": 2},
		"acme": {"max_concurrent": 8, "time_budget_ms": 1000, "call_budget": 20000}
	}`)
	var cfg server.Config
	if err := loadTenants(&cfg, path); err != nil {
		t.Fatal(err)
	}
	want := map[string]server.TenantConfig{
		"*":    {MaxConcurrent: 2, QueueDepth: 8, Weight: 2},
		"acme": {MaxConcurrent: 8, TimeBudgetMS: 1000, CallBudget: 20000},
	}
	if !reflect.DeepEqual(cfg.Tenants, want) {
		t.Fatalf("Tenants = %+v, want %+v", cfg.Tenants, want)
	}
	if !admits(t, cfg, "guest") {
		t.Fatal(`an unnamed tenant was refused under "*"`)
	}
	if got := server.New(cfg).Admission().Config("guest"); got.MaxConcurrent != 2 || got.Weight != 2 {
		t.Fatalf(`unnamed tenant runs under %+v, want the "*" entry's limits`, got)
	}
}

// TestLoadTenantsWithoutDefaultIsStrict: a table without "*" admits only
// the tenants it names.
func TestLoadTenantsWithoutDefaultIsStrict(t *testing.T) {
	path := writeTable(t, `{"acme": {"max_concurrent": 8}}`)
	var cfg server.Config
	if err := loadTenants(&cfg, path); err != nil {
		t.Fatal(err)
	}
	if want := map[string]server.TenantConfig{"acme": {MaxConcurrent: 8}}; !reflect.DeepEqual(cfg.Tenants, want) {
		t.Fatalf(`table without "*": tenants %+v, want %+v`, cfg.Tenants, want)
	}
	if !admits(t, cfg, "acme") || admits(t, cfg, "guest") {
		t.Fatal("a strict table must admit acme and refuse guest")
	}
}

// TestLoadTenantsNoFile: without -tenants every tenant runs under the
// defaults.
func TestLoadTenantsNoFile(t *testing.T) {
	var cfg server.Config
	if err := loadTenants(&cfg, ""); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg, server.Config{}) {
		t.Fatalf("no file changed the config: %+v", cfg)
	}
	if !admits(t, cfg, "guest") {
		t.Fatal("no file must admit every tenant")
	}
}

// TestLoadTenantsRejects: a table that decodes loosely or fails Validate
// is an error naming the file and, where the fault lies in one entry, the
// tenant — "*" included.
func TestLoadTenantsRejects(t *testing.T) {
	cases := []struct {
		name, body, tenant string
	}{
		{"unknown field", `{"acme": {"max_concurent": 8}}`, `"acme"`},
		{"unknown field in *", `{"*": {"refill_rate": 1}}`, `"*"`},
		{"negative weight", `{"acme": {"weight": -1}}`, `"acme"`},
		{"negative weight in *", `{"*": {"weight": -2}, "acme": {}}`, `"*"`},
		{"trailing data", `{"acme": {}} {"guest": {}}`, ""},
		{"not an object", `[1]`, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := writeTable(t, tc.body)
			var cfg server.Config
			err := loadTenants(&cfg, path)
			if err == nil {
				t.Fatalf("%s accepted: %+v", tc.body, cfg)
			}
			if !strings.Contains(err.Error(), path) {
				t.Fatalf("error %q does not name the file", err)
			}
			if tc.tenant != "" && !strings.Contains(err.Error(), "tenant "+tc.tenant) {
				t.Fatalf("error %q does not name tenant %s", err, tc.tenant)
			}
		})
	}
	if err := loadTenants(new(server.Config), filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("a missing file was accepted")
	}
}
