package main

import (
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one op share
// OpID; Parent is the span that caused this one (0 for an op's root).
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	OpID    int64  `json:"op_id"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

var (
	spanIDs atomic.Int64
	opIDs   atomic.Int64
	epoch   = time.Now() // span clocks count from process start
)

// observer collects what one client goroutine sees during a phase: named
// series (reported as medians), named counters (reported as sums or per-op
// means) and, in a traced phase, spans. One observer per client, merged
// after the phase, so the hot loop takes no lock.
type observer struct {
	series map[string][]float64
	counts map[string]float64
	spans  []span
}

func newObserver() *observer {
	return &observer{series: map[string][]float64{}, counts: map[string]float64{}}
}

func (o *observer) observe(name string, v float64) { o.series[name] = append(o.series[name], v) }
func (o *observer) add(name string, v float64)     { o.counts[name] += v }

// span records one interval and returns its id for children to point at.
func (o *observer) span(parent, op int64, name string, start, end time.Time) int64 {
	id := spanIDs.Add(1)
	o.spans = append(o.spans, span{
		ID: id, Parent: parent, OpID: op, Name: name,
		StartNS: start.Sub(epoch).Nanoseconds(), EndNS: end.Sub(epoch).Nanoseconds(),
	})
	return id
}

func (o *observer) merge(p *observer) {
	for k, v := range p.series {
		o.series[k] = append(o.series[k], v...)
	}
	for k, v := range p.counts {
		o.counts[k] += v
	}
	o.spans = append(o.spans, p.spans...)
}

// spanTimes folds spans into per-name duration and self-time samples, in
// milliseconds. Self time is a span's duration minus what its children cover.
func spanTimes(spans []span) (dur, self map[string][]float64) {
	covered := make(map[int64]int64, len(spans))
	for _, s := range spans {
		covered[s.Parent] += s.EndNS - s.StartNS
	}
	dur, self = map[string][]float64{}, map[string][]float64{}
	for _, s := range spans {
		d := s.EndNS - s.StartNS
		dur[s.Name] = append(dur[s.Name], ms(float64(d)))
		self[s.Name] = append(self[s.Name], ms(float64(d-covered[s.ID])))
	}
	return dur, self
}
