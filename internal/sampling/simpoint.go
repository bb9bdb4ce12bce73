package sampling

import (
	"fmt"

	"pgss/internal/bbv"
	"pgss/internal/cluster"
	"pgss/internal/pgsserrors"
	"pgss/internal/profile"
)

// SimPointConfig parameterises offline SimPoint (Sherwood et al., ASPLOS
// 2002; Hamerly et al. 2005): the run is cut into fixed-size intervals, the
// interval BBVs are clustered with k-means, and the interval closest to
// each centroid is simulated in detail with the cluster's weight.
type SimPointConfig struct {
	IntervalOps uint64 // interval (sample) size
	K           int    // cluster count
	Seed        int64  // k-means seed
	Restarts    int    // k-means restarts (default 3)
}

func (c SimPointConfig) String() string {
	return fmt.Sprintf("%dx%s", c.K, opsLabel(c.IntervalOps))
}

// Validate checks the profile-independent configuration constraints.
// Alignment against a specific profile's BBV granularity is checked by
// SimPoint itself.
func (c SimPointConfig) Validate() error {
	if c.IntervalOps == 0 {
		return pgsserrors.Invalidf("sampling: simpoint: zero interval in %+v", c)
	}
	if c.K <= 0 {
		return pgsserrors.Invalidf("sampling: simpoint: k=%d", c.K)
	}
	return nil
}

// opsLabel renders op counts as the paper does (100M, 10M, 1M, 100k).
func opsLabel(ops uint64) string {
	switch {
	case ops >= 1_000_000 && ops%1_000_000 == 0:
		return fmt.Sprintf("%dM", ops/1_000_000)
	case ops >= 1_000 && ops%1_000 == 0:
		return fmt.Sprintf("%dk", ops/1_000)
	default:
		return fmt.Sprintf("%d", ops)
	}
}

// SimPointSweep returns the paper's eleven SimPoint configurations at the
// given scale: interval sizes {1M,10M,100M}/scale each with k∈{5,10,20},
// plus 30 clusters of 10M/scale and 300 clusters of 1M/scale (§5).
func SimPointSweep(scale uint64) []SimPointConfig {
	if scale == 0 {
		scale = 1
	}
	sizes := []uint64{1_000_000 / scale, 10_000_000 / scale, 100_000_000 / scale}
	var out []SimPointConfig
	for _, sz := range sizes {
		for _, k := range []int{5, 10, 20} {
			out = append(out, SimPointConfig{IntervalOps: sz, K: k, Seed: 1, Restarts: 3})
		}
	}
	out = append(out,
		SimPointConfig{IntervalOps: 10_000_000 / scale, K: 30, Seed: 1, Restarts: 3},
		SimPointConfig{IntervalOps: 1_000_000 / scale, K: 300, Seed: 1, Restarts: 3},
	)
	return out
}

// SimPointOverall returns the configuration the paper found best overall:
// ten clusters of 100M-op intervals.
func SimPointOverall(scale uint64) SimPointConfig {
	if scale == 0 {
		scale = 1
	}
	return SimPointConfig{IntervalOps: 100_000_000 / scale, K: 10, Seed: 1, Restarts: 3}
}

// SimPoint runs the offline technique against a recorded profile. The BBV
// collection pass over the whole program is charged as plain fast-forward
// (SimPoint's profiling run does not warm microarchitectural state); the
// representative of each cluster is charged as detailed simulation.
func SimPoint(p *profile.Profile, cfg SimPointConfig) (Result, error) {
	return simPoint(p, cfg, p.BBVSeries)
}

// simPoint is SimPoint with the profile's BBV series supplied by series,
// so callers that cluster one profile many times compute each interval
// size's series once. The series is only read.
func simPoint(p *profile.Profile, cfg SimPointConfig, series func(intervalOps uint64) ([]bbv.Vector, error)) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.IntervalOps%p.BBVOps != 0 {
		return Result{}, pgsserrors.Misalignedf(
			"sampling: simpoint: interval %d not a multiple of BBV granularity %d",
			cfg.IntervalOps, p.BBVOps)
	}
	res := Result{
		Technique: "SimPoint",
		Config:    cfg.String(),
		Benchmark: p.Benchmark,
		TrueIPC:   p.TrueIPC(),
	}
	vectors, err := series(cfg.IntervalOps)
	if err != nil {
		return res, err
	}
	if len(vectors) == 0 {
		return res, pgsserrors.Invalidf("sampling: simpoint: no intervals (program of %d ops, interval %d)",
			p.TotalOps, cfg.IntervalOps)
	}
	cl, err := cluster.KMeans(vectors, cluster.Config{
		K: cfg.K, Seed: cfg.Seed, Restarts: cfg.Restarts,
	})
	if err != nil {
		return res, err
	}

	// Interval weights: every interval weighs its op count (the last may
	// be short).
	intervalOps := func(i int) uint64 {
		start := uint64(i) * cfg.IntervalOps
		end := start + cfg.IntervalOps
		if end > p.TotalOps {
			end = p.TotalOps
		}
		return end - start
	}
	clusterOps := make([]uint64, cl.K)
	for i := range vectors {
		clusterOps[cl.Assignment[i]] += intervalOps(i)
	}

	// Estimate in CPI space: the whole-program CPI is the ops-weighted
	// mean of per-interval CPIs, so each cluster contributes its
	// representative's CPI with the cluster's op weight.
	var weightedCPI, totalW float64
	for c := 0; c < cl.K; c++ {
		rep := cl.Representatives[c]
		if rep < 0 || clusterOps[c] == 0 {
			continue
		}
		start := uint64(rep) * cfg.IntervalOps
		// Representative intervals are aligned to FineOps because
		// IntervalOps is a multiple of BBVOps ≥ FineOps.
		ipc, err := p.IPCWindow(start, cfg.IntervalOps)
		if err != nil {
			return res, err
		}
		if ipc <= 0 {
			continue
		}
		w := float64(clusterOps[c])
		weightedCPI += w / ipc
		totalW += w
		res.Costs.Detailed += intervalOps(rep)
		res.Samples++
	}
	if totalW > 0 && weightedCPI > 0 {
		res.EstimatedIPC = totalW / weightedCPI
	}
	res.Phases = cl.K
	res.Costs.PlainFF = p.TotalOps // the offline BBV profiling pass
	return res, nil
}

// SimPointAuto runs SimPoint with the cluster count chosen automatically
// by the Bayesian information criterion, as SimPoint 3.0 does (Hamerly et
// al. 2005): k sweeps 1..maxK and the highest-BIC clustering wins.
func SimPointAuto(p *profile.Profile, intervalOps uint64, maxK int, seed int64) (Result, error) {
	if maxK <= 0 {
		return Result{}, pgsserrors.Invalidf("sampling: simpoint auto: maxK=%d", maxK)
	}
	if intervalOps == 0 || intervalOps%p.BBVOps != 0 {
		return Result{}, pgsserrors.Misalignedf(
			"sampling: simpoint auto: interval %d not a multiple of BBV granularity %d",
			intervalOps, p.BBVOps)
	}
	vectors, err := p.BBVSeries(intervalOps)
	if err != nil {
		return Result{}, err
	}
	if len(vectors) == 0 {
		return Result{}, pgsserrors.Invalidf("sampling: simpoint auto: no intervals")
	}
	bestK, bestBIC := 1, 0.0
	for k := 1; k <= maxK && k <= len(vectors); k++ {
		cl, err := cluster.KMeans(vectors, cluster.Config{K: k, Seed: seed, Restarts: 2})
		if err != nil {
			return Result{}, err
		}
		if bic := cluster.BIC(vectors, cl); k == 1 || bic > bestBIC {
			bestK, bestBIC = k, bic
		}
	}
	res, err := simPoint(p, SimPointConfig{IntervalOps: intervalOps, K: bestK, Seed: seed, Restarts: 3},
		func(uint64) ([]bbv.Vector, error) { return vectors, nil })
	if err != nil {
		return res, err
	}
	res.Config = fmt.Sprintf("auto(BIC)=%s", res.Config)
	return res, nil
}

// SimPointBest runs every configuration in the sweep and returns the
// result with the lowest error — the "best per benchmark" series of
// Fig 12 — plus all individual results.
func SimPointBest(p *profile.Profile, sweep []SimPointConfig) (best Result, all []Result, err error) {
	// The sweep's configurations share interval sizes (three among the
	// paper's eleven): compute each size's BBV series once.
	memo := map[uint64][]bbv.Vector{}
	seriesOf := func(intervalOps uint64) ([]bbv.Vector, error) {
		if v, ok := memo[intervalOps]; ok {
			return v, nil
		}
		v, err := p.BBVSeries(intervalOps)
		if err == nil {
			memo[intervalOps] = v
		}
		return v, err
	}
	for _, cfg := range sweep {
		r, e := simPoint(p, cfg, seriesOf)
		if e != nil {
			// Configurations too coarse for the program (interval larger
			// than the run) are skipped, as they would be in practice.
			continue
		}
		all = append(all, r)
		if best.Technique == "" || r.ErrorPct() < best.ErrorPct() {
			best = r
		}
	}
	if best.Technique == "" {
		return best, all, fmt.Errorf("sampling: simpoint: %w", pgsserrors.ErrInfeasible)
	}
	return best, all, nil
}
