package core

import (
	"reflect"
	"testing"

	"repro/internal/submod"
)

// Every integer or duration field of Telemetry is either additive — Split
// divides it with Σ shares == total — or named here; a field added later fails until it is put on one
// list or the other (Telemetry.counters, or this one).
func TestTelemetryFieldsCovered(t *testing.T) {
	notAdditive := map[string]bool{
		"Stopped": true, // a reason, not a count: every share and the sum carry it
	}
	var whole Telemetry
	v := reflect.ValueOf(&whole).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.CanInt() && !notAdditive[v.Type().Field(i).Name] {
			f.SetInt(int64(1000 + 37*i))
		}
	}
	whole.Stopped = submod.StopTimeBudget
	shares := whole.Split([]int{3, 1, 2})
	got := reflect.New(v.Type()).Elem() // Σ shares, field by field
	for _, s := range shares {
		if s.Stopped != whole.Stopped {
			t.Fatalf("a share is stopped %v, the run %v", s.Stopped, whole.Stopped)
		}
		sv := reflect.ValueOf(s)
		for i := 0; i < v.NumField(); i++ {
			if f := got.Field(i); f.CanInt() {
				f.SetInt(f.Int() + sv.Field(i).Int())
			}
		}
	}
	sum := got.Interface().(Telemetry)
	sum.setHitRate()
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		if !v.Field(i).CanInt() || notAdditive[name] {
			continue // CacheHitRate: derived from the counters, checked below
		}
		if got.Field(i).Int() != v.Field(i).Int() {
			t.Errorf("Telemetry.%s: shares of %d sum to %d — not in counters() and not listed as not additive", name, v.Field(i).Int(), got.Field(i).Int())
		}
		if part := reflect.ValueOf(shares[1]).Field(i).Int(); part <= 0 || part >= v.Field(i).Int() {
			t.Errorf("Telemetry.%s: the weight-1 share of %d is %d", name, v.Field(i).Int(), part)
		}
	}
	whole.setHitRate()
	if sum.CacheHitRate != whole.CacheHitRate || whole.CacheHitRate == 0 {
		t.Errorf("hit rate of the summed shares %v, of the whole %v", sum.CacheHitRate, whole.CacheHitRate)
	}
	if len(whole.Split(nil)) != 0 {
		t.Error("a split among nobody has shares")
	}
}
