package main

import (
	"errors"
	"math"
	"testing"

	"pgss/internal/campaign"
	"pgss/internal/sampling"
)

// The expected values are Python's statistics.quantiles(xs, n=4) and
// statistics.median(xs), the arithmetic the benchmark's gate uses.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q3, md float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25, 5.5},
		{[]float64{3, 1, 2}, 1, 3, 2},
		{[]float64{5, 1}, 0, 6, 3},
		{[]float64{0.3, 0.1, 0.7, 0.2, 0.9, 0.4, 0.8}, 0.2, 0.8, 0.4},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
		if md := median(c.xs); math.Abs(md-c.md) > 1e-12 {
			t.Errorf("median(%v) = %v, want %v", c.xs, md, c.md)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN")
	}
}

func TestQuartilesLeaveInputUnsorted(t *testing.T) {
	xs := []float64{3, 1, 2}
	quartiles(xs)
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input reordered: %v", xs)
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(40 - i) // 40 … 1
	}
	pct, v, ok := tail(xs)
	if !ok || pct != 75 || v != 30 {
		t.Fatalf("tail = p%v %v %v; want p75 30 (ten samples above)", pct, v, ok)
	}
	if _, _, ok := tail(xs[:19]); ok {
		t.Fatal("tail of 19 samples must not report a percentile")
	}
}

func TestSpread(t *testing.T) {
	// IQR 8.25−2.75 = 5.5 over median 5.5.
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("spread = %v, want 1", got)
	}
	if got := spread([]float64{4, 4, 4, 4}); got != 0 {
		t.Fatalf("spread of a constant = %v, want 0", got)
	}
}

func TestFailureAccounting(t *testing.T) {
	var tl tally
	if tl.failedFrac() != 0 {
		t.Fatal("nothing attempted must read 0")
	}
	tl.merge(tally{attempted: 10})            // ten recordings
	tl.merge(tally{attempted: 60, failed: 3}) // a campaign with three failed runs
	tl.merge(tally{attempted: 30, failed: 1})
	if tl.attempted != 100 || tl.failed != 4 {
		t.Fatalf("tally = %+v, want 100 attempted, 4 failed", tl)
	}
	if got := tl.failedFrac(); got != 0.04 {
		t.Fatalf("failedFrac = %v, want 0.04", got)
	}

	// A failed output check fails every operation of its run.
	o := opOut{Attempted: 20, Digest: "b"}
	r := &runner{expected: "a"}
	r.checkDigest(&o)
	if o.Failed != 20 {
		t.Fatalf("mismatched digest: failed = %d, want 20", o.Failed)
	}
	// The first digest becomes the reference when set-up gives none; the
	// committed reference still has to match.
	r = &runner{reference: "a"}
	o = opOut{Attempted: 5, Digest: "a"}
	r.checkDigest(&o)
	if o.Failed != 0 || r.expected != "a" {
		t.Fatalf("matching digest failed %d ops, expected %q", o.Failed, r.expected)
	}
	o = opOut{Attempted: 5, Digest: "c"}
	r.checkDigest(&o)
	if o.Failed != 5 {
		t.Fatalf("digest off the reference: failed = %d, want 5", o.Failed)
	}
}

func TestNoRegressionRule(t *testing.T) {
	cases := []struct {
		base, cur, bound float64
		better           string
		want             bool
	}{
		{10, 11, 0.15, "lower", false},
		{10, 11.6, 0.15, "lower", true},
		{10, 8, 0.15, "lower", false},
		{10, 8, 0.15, "higher", true},
		{10, 12, 0.15, "higher", false},
		{0, 5, 0.15, "lower", false},
	}
	for _, c := range cases {
		if got := worse(c.base, c.cur, c.bound, c.better); got != c.want {
			t.Errorf("worse(%v, %v, %v, %s) = %v, want %v", c.base, c.cur, c.bound, c.better, got, c.want)
		}
	}
}

func TestResplitFireRate(t *testing.T) {
	// Identical sets never fire; disjoint sets far apart always split
	// into some halves that fire.
	same := []float64{1, 1, 1, 1, 1}
	if got := resplitFireRate(same, same, 0.1, "lower"); got != 0 {
		t.Fatalf("fire rate on constant data = %v, want 0", got)
	}
	lo, hi := []float64{1, 1, 1, 1, 1}, []float64{2, 2, 2, 2, 2}
	if got := resplitFireRate(lo, hi, 0.1, "lower"); got <= 0 || got >= 1 {
		t.Fatalf("fire rate on bimodal data = %v, want strictly between 0 and 1", got)
	}
}

func TestCrossHostRefused(t *testing.T) {
	h := hostFacts{CPUModel: "x", NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", OSArch: "linux/amd64", Source: "a"}
	same := h
	same.Source = "b" // another commit on the same host is comparable
	if err := checkHosts([]logRecord{{Host: h}, {Host: same}}); err != nil {
		t.Fatalf("same host refused: %v", err)
	}
	other := h
	other.NumCPU = 4
	if err := checkHosts([]logRecord{{Host: h}, {Host: same}, {Host: other}}); !errors.Is(err, errHostMismatch) {
		t.Fatalf("cross-host comparison: err = %v, want errHostMismatch", err)
	}
}

// The campaign check fails errored runs only; a PGSS-Live estimate that
// differs from the replayed one is a measured gap, not a failure.
func TestCampaignCheckAndLiveReplayGap(t *testing.T) {
	res := func(ipc float64) sampling.Result { return sampling.Result{EstimatedIPC: ipc} }
	rep := &campaign.Report{Outcomes: []campaign.Outcome{
		{Spec: campaign.Spec{Benchmark: "a", Technique: "PGSS"}, Result: res(0.5)},
		{Spec: campaign.Spec{Benchmark: "a", Technique: "PGSS-Live"}, Result: res(0.51)},
		{Spec: campaign.Spec{Benchmark: "b", Technique: "PGSS"}, Result: res(2)},
		{Spec: campaign.Spec{Benchmark: "b", Technique: "PGSS-Live"}, Result: res(2)},
		{Spec: campaign.Spec{Benchmark: "b", Technique: "RSS"}, Err: errors.New("boom")},
	}}
	var o opOut
	check(rep, t.TempDir(), &o)
	if o.Attempted != 5 || o.Failed != 1 {
		t.Fatalf("check: %d attempted, %d failed; want 5, 1", o.Attempted, o.Failed)
	}
	if got := liveReplayGapPct(rep); math.Abs(got-1) > 1e-9 {
		t.Fatalf("liveReplayGapPct = %v, want 1 (mean of 2%% and 0%%)", got)
	}
}
