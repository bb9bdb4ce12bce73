// Package cluster implements the k-means clustering used by the offline
// SimPoint baseline: k-means++ seeding, Lloyd iterations over BBVs, and the
// representative-selection step (the vector closest to each centroid
// becomes the simulation point for that cluster).
package cluster

import (
	"math"
	"math/rand"
	"runtime"
	"sync"

	"pgss/internal/bbv"
	"pgss/internal/pgsserrors"
)

// Result describes one clustering.
type Result struct {
	K          int
	Centroids  []bbv.Vector
	Assignment []int // point index → cluster
	Sizes      []int
	// Representatives[c] is the index of the point closest to centroid c
	// (-1 for an empty cluster).
	Representatives []int
	// Inertia is the summed squared distance of points to their centroid.
	Inertia float64
	// Iterations actually performed.
	Iterations int
}

// Config parameterises KMeans.
type Config struct {
	K        int
	MaxIters int   // default 100
	Seed     int64 // RNG seed for k-means++ (deterministic)
	// Restarts runs the algorithm this many times with derived seeds and
	// keeps the lowest-inertia result (default 1).
	Restarts int
}

// KMeans clusters the points. Points are typically normalised BBVs; the
// metric is Euclidean, as in SimPoint 3.0. The restarts run concurrently
// and the lowest-inertia result wins, ties going to the earliest restart,
// so the result does not depend on scheduling. points is not modified.
func KMeans(points []bbv.Vector, cfg Config) (*Result, error) {
	if cfg.K <= 0 {
		return nil, pgsserrors.Invalidf("cluster: k=%d", cfg.K)
	}
	if len(points) == 0 {
		return nil, pgsserrors.Invalidf("cluster: no points")
	}
	m, err := newMatrix(points)
	if err != nil {
		return nil, err
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
	results := make([]*Result, cfg.Restarts)
	workers := min(cfg.Restarts, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := w; r < len(results); r += workers {
				results[r] = kmeansOnce(m, cfg.K, cfg.MaxIters, cfg.Seed+int64(r)*7919)
			}
		}(w)
	}
	wg.Wait()
	best := results[0]
	for _, res := range results[1:] {
		if res.Inertia < best.Inertia {
			best = res
		}
	}
	return best, nil
}

// matrix is the point set copied once into a flat row-major buffer.
type matrix struct {
	n, dim int
	data   []float64
}

func newMatrix(points []bbv.Vector) (*matrix, error) {
	dim := len(points[0])
	m := &matrix{n: len(points), dim: dim, data: make([]float64, 0, len(points)*dim)}
	for i, p := range points {
		if len(p) != dim {
			return nil, pgsserrors.Invalidf("cluster: point %d has %d dimensions, point 0 has %d", i, len(p), dim)
		}
		m.data = append(m.data, p...)
	}
	return m, nil
}

func (m *matrix) row(i int) []float64 { return row(m.data, i, m.dim) }

// row returns row i of a flat row-major buffer with dim columns.
func row(data []float64, i, dim int) []float64 {
	return data[i*dim : (i+1)*dim : (i+1)*dim]
}

func kmeansOnce(m *matrix, k, maxIters int, seed int64) *Result {
	rng := rand.New(rand.NewSource(seed))
	dim := m.dim

	// Centroids live in two flat k×dim buffers that swap every iteration.
	centroids := make([]float64, k*dim)
	next := make([]float64, k*dim)
	seedPlusPlus(m, centroids, k, rng)
	assign := make([]int, m.n)
	for i := range assign {
		assign[i] = -1
	}
	sizes := make([]int, k)

	var iters int
	for iters = 0; iters < maxIters; iters++ {
		moved := false
		clear(sizes)
		for i := range assign {
			c := nearest(m.row(i), centroids, k, dim)
			if c != assign[i] {
				moved = true
				assign[i] = c
			}
			sizes[c]++
		}
		if !moved && iters > 0 {
			break
		}
		// Recompute centroids; empty clusters are reseeded on the point
		// farthest from its (previous) centroid, the same point for every
		// cluster that empties in this iteration.
		clear(next)
		for i, c := range assign {
			ce := row(next, c, dim)
			for j, x := range m.row(i) {
				ce[j] += x
			}
		}
		far := -1
		for c, size := range sizes {
			ce := row(next, c, dim)
			if size > 0 {
				s := 1 / float64(size)
				for j := range ce {
					ce[j] *= s
				}
				continue
			}
			if far < 0 {
				far = farthest(m, centroids, assign)
			}
			copy(ce, m.row(far))
		}
		centroids, next = next, centroids
	}

	res := &Result{
		K:          k,
		Centroids:  make([]bbv.Vector, k),
		Assignment: assign,
		Sizes:      sizes,
		Iterations: iters,
	}
	for c := range res.Centroids {
		res.Centroids[c] = row(centroids, c, dim)
	}
	res.Representatives = make([]int, k)
	repDist := make([]float64, k)
	for c := range res.Representatives {
		res.Representatives[c] = -1
		repDist[c] = math.Inf(1)
	}
	for i, c := range assign {
		d := math.Sqrt(sqDist(m.row(i), res.Centroids[c]))
		res.Inertia += d * d
		if d < repDist[c] {
			repDist[c] = d
			res.Representatives[c] = i
		}
	}
	return res
}

// seedPlusPlus writes k initial centroids into the flat buffer cents with
// k-means++ (squared-distance weighted sampling). A point whose weight has
// reached 0 keeps it (no distance is below 0) and adds nothing to the
// weight sum, so it is dropped from the scan.
func seedPlusPlus(m *matrix, cents []float64, k int, rng *rand.Rand) {
	dim := m.dim
	copy(row(cents, 0, dim), m.row(rng.Intn(m.n)))
	d2 := make([]float64, m.n)
	live := make([]int, m.n) // points whose weight may still be non-zero
	for i := range live {
		live[i] = i
	}
	for got := 1; got < k; got++ {
		last := row(cents, got-1, dim)
		var sum float64
		kept := 0
		// weigh folds point i's distance to the newest centroid into its
		// weight and the running sum, in point order.
		weigh := func(i int, s float64) {
			d := math.Sqrt(s)
			dd := d * d
			if got == 1 || dd < d2[i] {
				d2[i] = dd
			}
			sum += d2[i]
			if d2[i] != 0 {
				live[kept] = i
				kept++
			}
		}
		g := 0
		for ; g+4 <= len(live); g += 4 {
			i0, i1, i2, i3 := live[g], live[g+1], live[g+2], live[g+3]
			s0, s1, s2, s3 := sqDist4(last, m.row(i0), m.row(i1), m.row(i2), m.row(i3))
			weigh(i0, s0)
			weigh(i1, s1)
			weigh(i2, s2)
			weigh(i3, s3)
		}
		for ; g < len(live); g++ {
			weigh(live[g], sqDist(last, m.row(live[g])))
		}
		live = live[:kept]
		if sum == 0 {
			// All points coincide with existing centroids.
			copy(row(cents, got, dim), m.row(rng.Intn(m.n)))
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
		copy(row(cents, got, dim), m.row(idx))
	}
}

// nearest returns the index of the centroid closest to p, the first one on
// a tie of distances. It compares squared distances and takes the root
// only on a strict squared improvement: the correctly rounded square root
// is monotone, so only such a candidate can have a strictly smaller
// distance, and confirming on the root keeps the earlier index when two
// squared distances round to the same root. Once the best distance is 0
// no later centroid can beat it.
func nearest(p, cents []float64, k, dim int) int {
	best, bestSq, bestD := 0, math.Inf(1), math.Inf(1)
	offer := func(c int, s float64) {
		if s < bestSq {
			if d := math.Sqrt(s); d < bestD {
				best, bestSq, bestD = c, s, d
			}
		}
	}
	c := 0
	for ; c+4 <= k && bestSq != 0; c += 4 {
		s0, s1, s2, s3 := sqDist4(p, row(cents, c, dim), row(cents, c+1, dim),
			row(cents, c+2, dim), row(cents, c+3, dim))
		offer(c, s0)
		offer(c+1, s1)
		offer(c+2, s2)
		offer(c+3, s3)
	}
	for ; c < k && bestSq != 0; c++ {
		offer(c, sqDist(p, row(cents, c, dim)))
	}
	return best
}

// farthest returns the index of the point farthest from its assigned
// centroid, the first one on a tie, with nearest's squared-then-root
// comparison.
func farthest(m *matrix, cents []float64, assign []int) int {
	best, bestSq, bestD := 0, -1.0, -1.0
	for i, c := range assign {
		s := sqDist(m.row(i), row(cents, c, m.dim))
		if s > bestSq {
			if d := math.Sqrt(s); d > bestD {
				best, bestSq, bestD = i, s, d
			}
		}
	}
	return best
}

// sqDist returns the squared Euclidean distance between a and b, summed
// in dimension order exactly as bbv.Vector.EuclideanDistance sums it.
func sqDist(a, b []float64) float64 {
	b = b[:len(a)]
	var s float64
	for j, x := range a {
		d := x - b[j]
		s += d * d
	}
	return s
}

// sqDist4 returns sqDist(p, r) for four rows at once. Each row has its own
// accumulator summed in dimension order, so every result is bit-identical
// to sqDist's; the four independent chains only add instruction-level
// parallelism. (x-y)² and (y-x)² are the same float64.
func sqDist4(p, r0, r1, r2, r3 []float64) (s0, s1, s2, s3 float64) {
	r0, r1, r2, r3 = r0[:len(p)], r1[:len(p)], r2[:len(p)], r3[:len(p)]
	for j, x := range p {
		d0 := x - r0[j]
		d1 := x - r1[j]
		d2 := x - r2[j]
		d3 := x - r3[j]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	return s0, s1, s2, s3
}

// BIC scores a clustering with the Bayesian information criterion used by
// SimPoint 3.0 to choose k: higher is better. It follows the Pelleg–Moore
// X-means formulation for spherical Gaussians.
func BIC(points []bbv.Vector, res *Result) float64 {
	n := float64(len(points))
	if n == 0 {
		return math.Inf(-1)
	}
	d := float64(len(points[0]))
	k := float64(res.K)
	if n <= k {
		return math.Inf(-1)
	}
	// Pooled variance estimate.
	variance := res.Inertia / (d * (n - k))
	if variance <= 0 {
		variance = 1e-12
	}
	var ll float64
	for c, size := range res.Sizes {
		if size == 0 {
			continue
		}
		rn := float64(size)
		_ = c
		ll += rn*math.Log(rn) - rn*math.Log(n) -
			rn*d/2*math.Log(2*math.Pi*variance) - (rn-k)*d/2/d
	}
	params := k * (d + 1)
	return ll - params/2*math.Log(n)
}
