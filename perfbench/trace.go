package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Start and End are offsets from the
// tracer's origin; Parent is the id of the span that caused it (-1 for a
// root).
type span struct {
	ID     int           `json:"id"`
	Name   string        `json:"name"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans and counts in memory; they are written out once, when
// the run ends. All methods are safe for concurrent use, and a nil tracer
// records nothing, so instrumented code runs unchanged untraced.
type tracer struct {
	origin time.Time

	mu     sync.Mutex
	spans  []span
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), counts: map[string]float64{}}
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Start: now, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// count adds v to the named counter.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// snapshot returns a copy of the closed spans and the counters.
func (t *tracer) snapshot() ([]span, map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	counts := make(map[string]float64, len(t.counts))
	for k, v := range t.counts {
		counts[k] = v
	}
	return out, counts
}

// spanSet indexes a span list for the per-layer arithmetic.
type spanSet struct {
	spans    []span
	children map[int][]span
}

func newSpanSet(spans []span) spanSet {
	ss := spanSet{spans: spans, children: map[int][]span{}}
	for _, s := range spans {
		ss.children[s.Parent] = append(ss.children[s.Parent], s)
	}
	return ss
}

// busy sums the durations of every span with the given name. Under
// concurrency (campaign jobs, parallel shards) busy time can exceed wall
// time.
func (ss spanSet) busy(name string) time.Duration {
	var d time.Duration
	for _, s := range ss.spans {
		if s.Name == name {
			d += s.dur()
		}
	}
	return d
}

// self returns the part of span s that none of its children covers.
func (ss spanSet) self(s span) time.Duration {
	return s.dur() - covered(s, ss.children[s.ID])
}

// selfByName sums self time over every span with the given name.
func (ss spanSet) selfByName(name string) time.Duration {
	var d time.Duration
	for _, s := range ss.spans {
		if s.Name == name {
			d += ss.self(s)
		}
	}
	return d
}

// coverage is the share of root's wall time that its direct children
// cover.
func (ss spanSet) coverage(root span) float64 {
	if root.dur() <= 0 {
		return 0
	}
	return float64(covered(root, ss.children[root.ID])) / float64(root.dur())
}

// covered returns the length of the union of the intervals of kids,
// clipped to parent.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var cur iv
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			cur, open = v, true
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			total += cur.b - cur.a
			cur = v
		}
	}
	if open {
		total += cur.b - cur.a
	}
	return total
}
