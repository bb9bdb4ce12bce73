package cluster

// The k-means implementation this package shipped before its flat-matrix
// rewrite, kept verbatim (identifiers prefixed with "oracle") as the
// differential oracle for TestKMeansMatchesOracle: every Result of KMeans
// must be DeepEqual to this code's.

import (
	"fmt"
	"math"
	"math/rand"

	"pgss/internal/bbv"
)

// oracleKMeans clusters the points. Points are typically normalised BBVs; the
// metric is Euclidean, as in SimPoint 3.0.
func oracleKMeans(points []bbv.Vector, cfg Config) (*Result, error) {
	if cfg.K <= 0 {
		return nil, fmt.Errorf("cluster: k=%d", cfg.K)
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("cluster: no points")
	}
	if cfg.K > len(points) {
		cfg.K = len(points)
	}
	if cfg.MaxIters <= 0 {
		cfg.MaxIters = 100
	}
	if cfg.Restarts <= 0 {
		cfg.Restarts = 1
	}
	var best *Result
	for r := 0; r < cfg.Restarts; r++ {
		res := oracleKMeansOnce(points, cfg.K, cfg.MaxIters, cfg.Seed+int64(r)*7919)
		if best == nil || res.Inertia < best.Inertia {
			best = res
		}
	}
	return best, nil
}

func oracleKMeansOnce(points []bbv.Vector, k, maxIters int, seed int64) *Result {
	rng := rand.New(rand.NewSource(seed))
	dim := len(points[0])

	centroids := oracleSeedPlusPlus(points, k, rng)
	assign := make([]int, len(points))
	for i := range assign {
		assign[i] = -1
	}
	sizes := make([]int, k)

	var iters int
	for iters = 0; iters < maxIters; iters++ {
		moved := false
		for i := range sizes {
			sizes[i] = 0
		}
		for i, p := range points {
			c := oracleNearest(p, centroids)
			if c != assign[i] {
				moved = true
				assign[i] = c
			}
			sizes[c]++
		}
		if !moved && iters > 0 {
			break
		}
		// Recompute centroids; empty clusters are reseeded on the farthest
		// point from its centroid.
		next := make([]bbv.Vector, k)
		for c := range next {
			next[c] = make(bbv.Vector, dim)
		}
		for i, p := range points {
			next[assign[i]].Add(p)
		}
		for c := range next {
			if sizes[c] > 0 {
				next[c].Scale(1 / float64(sizes[c]))
			} else {
				next[c] = points[oracleFarthest(points, centroids, assign)].Clone()
			}
		}
		centroids = next
	}

	res := &Result{
		K:          k,
		Centroids:  centroids,
		Assignment: assign,
		Sizes:      sizes,
		Iterations: iters,
	}
	res.Representatives = make([]int, k)
	repDist := make([]float64, k)
	for c := range res.Representatives {
		res.Representatives[c] = -1
		repDist[c] = math.Inf(1)
	}
	for i, p := range points {
		c := assign[i]
		d := p.EuclideanDistance(centroids[c])
		res.Inertia += d * d
		if d < repDist[c] {
			repDist[c] = d
			res.Representatives[c] = i
		}
	}
	return res
}

// oracleSeedPlusPlus picks k initial centroids with k-means++ (squared-distance
// weighted sampling).
func oracleSeedPlusPlus(points []bbv.Vector, k int, rng *rand.Rand) []bbv.Vector {
	centroids := make([]bbv.Vector, 0, k)
	centroids = append(centroids, points[rng.Intn(len(points))].Clone())
	d2 := make([]float64, len(points))
	for len(centroids) < k {
		var sum float64
		last := centroids[len(centroids)-1]
		for i, p := range points {
			d := p.EuclideanDistance(last)
			dd := d * d
			if len(centroids) == 1 || dd < d2[i] {
				d2[i] = dd
			}
			sum += d2[i]
		}
		if sum == 0 {
			// All points coincide with existing centroids.
			centroids = append(centroids, points[rng.Intn(len(points))].Clone())
			continue
		}
		target := rng.Float64() * sum
		idx := 0
		for i, w := range d2 {
			target -= w
			if target <= 0 {
				idx = i
				break
			}
		}
		centroids = append(centroids, points[idx].Clone())
	}
	return centroids
}

func oracleNearest(p bbv.Vector, centroids []bbv.Vector) int {
	best := 0
	bestD := math.Inf(1)
	for c, ce := range centroids {
		d := p.EuclideanDistance(ce)
		if d < bestD {
			bestD = d
			best = c
		}
	}
	return best
}

func oracleFarthest(points []bbv.Vector, centroids []bbv.Vector, assign []int) int {
	best := 0
	bestD := -1.0
	for i, p := range points {
		d := p.EuclideanDistance(centroids[assign[i]])
		if d > bestD {
			bestD = d
			best = i
		}
	}
	return best
}

// OracleKMeans exposes the oracle to the external differential test.
var OracleKMeans = oracleKMeans

// NearTie exposes the near-tie constructor to the external differential
// test.
var NearTie = nearTie
