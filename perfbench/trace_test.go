package main

import (
	"math"
	"sync"
	"testing"
	"time"
)

func sp(id int, name string, parent int, start, end time.Duration) span {
	return span{ID: id, Name: name, Parent: parent, Start: start, End: end}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	ss := newSpanSet([]span{
		sp(0, "op", -1, 0, 100*ms),
		// Two overlapping children (concurrent jobs) cover [10,50).
		sp(1, "campaign.run", 0, 10*ms, 40*ms),
		sp(2, "campaign.run", 0, 20*ms, 50*ms),
		// A child sticking out of its parent is clipped to it.
		sp(3, "core.run", 1, 30*ms, 45*ms),
		sp(4, "artifact.load", 0, 60*ms, 70*ms),
	})
	if got := ss.self(ss.spans[0]); got != 50*ms {
		t.Errorf("op self = %v, want 50ms (100 − [10,50) − [60,70))", got)
	}
	if got := ss.self(ss.spans[1]); got != 20*ms {
		t.Errorf("run self = %v, want 20ms (30 − clipped [30,40))", got)
	}
	if got := ss.selfByName("campaign.run"); got != 50*ms {
		t.Errorf("campaign.run self = %v, want 50ms", got)
	}
	if got := ss.busy("campaign.run"); got != 60*ms {
		t.Errorf("campaign.run busy = %v, want 60ms (busy time counts both jobs)", got)
	}
	if got := ss.coverage(ss.spans[0]); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("coverage = %v, want 0.5", got)
	}
}

func TestCoveredMergesAdjacentAndNested(t *testing.T) {
	ms := time.Millisecond
	parent := sp(0, "op", -1, 0, 100*ms)
	kids := []span{
		sp(1, "a", 0, 0, 10*ms),
		sp(2, "b", 0, 10*ms, 20*ms), // adjacent
		sp(3, "c", 0, 12*ms, 15*ms), // nested
		sp(4, "d", 0, 90*ms, 120*ms),
	}
	if got := covered(parent, kids); got != 30*ms {
		t.Fatalf("covered = %v, want 30ms", got)
	}
	if got := covered(parent, nil); got != 0 {
		t.Fatalf("covered(no kids) = %v", got)
	}
}

func TestTracerConcurrentAndNil(t *testing.T) {
	var nilTracer *tracer
	id := nilTracer.begin("x", -1)
	nilTracer.end(id)
	nilTracer.count("x", 1)

	tr := newTracer()
	root := tr.begin("op", -1)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := tr.begin("core.run", root)
			tr.count("core.comparisons", 2)
			tr.end(id)
		}()
	}
	wg.Wait()
	open := tr.begin("unfinished", root)
	_ = open
	tr.end(root)
	spans, counts := tr.snapshot()
	if len(spans) != 9 {
		t.Fatalf("got %d closed spans, want 9 (an open span is not reported)", len(spans))
	}
	if counts["core.comparisons"] != 16 {
		t.Fatalf("comparisons = %v, want 16", counts["core.comparisons"])
	}
}

func TestLayerMetricsReportsEveryMetric(t *testing.T) {
	ms := time.Millisecond
	o := opOut{
		Spans: []span{
			sp(0, "op", -1, 0, 100*ms),
			sp(1, "artifact.store", 0, 0, 50*ms),
			sp(2, "profile.record", 1, 10*ms, 40*ms),
		},
		Counts: map[string]float64{"profile.ops": 3e6},
		Layer:  map[string]float64{"artifact.hit_ratio": 0},
	}
	m := layerMetrics(o, 2, 0.2)
	for _, d := range perLayer {
		v, ok := m[d.name]
		if d.name == "trace.overhead_s" {
			continue
		}
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v (present %v)", d.name, v, ok)
		}
	}
	if got := m["artifact.publish_s"]; math.Abs(got-0.02) > 1e-9 {
		t.Errorf("publish = %v, want 0.02 (store time minus record callback)", got)
	}
	if got := m["cpu.detailed_mops"]; math.Abs(got-100) > 1e-9 {
		t.Errorf("detailed Mops/s = %v, want 100", got)
	}
	if got := m["trace.coverage"]; math.Abs(got-0.5) > 1e-9 {
		t.Errorf("coverage = %v, want 0.5", got)
	}
}
