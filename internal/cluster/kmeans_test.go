package cluster

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pgss/internal/bbv"
)

// blob generates n noisy points around a one-hot centre.
func blob(rng *rand.Rand, centre, n int) []bbv.Vector {
	var out []bbv.Vector
	for i := 0; i < n; i++ {
		v := make(bbv.Vector, 16)
		v[centre] = 1
		for j := range v {
			v[j] += rng.Float64() * 0.05
		}
		out = append(out, v.Normalize())
	}
	return out
}

func TestKMeansSeparatesBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	points := append(blob(rng, 0, 30), blob(rng, 7, 30)...)
	points = append(points, blob(rng, 13, 30)...)
	res, err := KMeans(points, Config{K: 3, Seed: 1, Restarts: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Every blob must be pure: all 30 members in the same cluster.
	for b := 0; b < 3; b++ {
		first := res.Assignment[b*30]
		for i := 1; i < 30; i++ {
			if res.Assignment[b*30+i] != first {
				t.Fatalf("blob %d split across clusters", b)
			}
		}
	}
	if res.Sizes[0]+res.Sizes[1]+res.Sizes[2] != 90 {
		t.Errorf("sizes = %v", res.Sizes)
	}
}

func TestKMeansValidation(t *testing.T) {
	if _, err := KMeans(nil, Config{K: 2}); err == nil {
		t.Error("empty points accepted")
	}
	if _, err := KMeans([]bbv.Vector{{1}}, Config{K: 0}); err == nil {
		t.Error("k=0 accepted")
	}
	// k > n clamps to n.
	res, err := KMeans([]bbv.Vector{{1, 0}, {0, 1}}, Config{K: 5, Seed: 1})
	if err != nil || res.K != 2 {
		t.Errorf("k clamp failed: %v %v", res, err)
	}
}

func TestRepresentativesAreClosest(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	points := append(blob(rng, 0, 20), blob(rng, 9, 20)...)
	res, err := KMeans(points, Config{K: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for c, rep := range res.Representatives {
		if rep < 0 {
			continue
		}
		if res.Assignment[rep] != c {
			t.Errorf("representative of cluster %d is assigned to %d", c, res.Assignment[rep])
		}
		repD := points[rep].EuclideanDistance(res.Centroids[c])
		for i, p := range points {
			if res.Assignment[i] == c && p.EuclideanDistance(res.Centroids[c]) < repD-1e-12 {
				t.Fatalf("point %d closer to centroid %d than its representative", i, c)
			}
		}
	}
}

// Property: each point is assigned to its nearest centroid once Lloyd
// converges, and inertia equals the recomputed sum.
func TestPropertyAssignmentOptimality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var points []bbv.Vector
		for b := 0; b < 3; b++ {
			points = append(points, blob(rng, b*5, 10)...)
		}
		res, err := KMeans(points, Config{K: 3, Seed: seed})
		if err != nil {
			return false
		}
		var inertia float64
		for i, p := range points {
			own := p.EuclideanDistance(res.Centroids[res.Assignment[i]])
			inertia += own * own
			for c := range res.Centroids {
				if p.EuclideanDistance(res.Centroids[c]) < own-1e-9 {
					return false
				}
			}
		}
		return math.Abs(inertia-res.Inertia) < 1e-6*(1+inertia)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestKMeansDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	points := append(blob(rng, 2, 25), blob(rng, 11, 25)...)
	a, _ := KMeans(points, Config{K: 2, Seed: 99})
	b, _ := KMeans(points, Config{K: 2, Seed: 99})
	for i := range a.Assignment {
		if a.Assignment[i] != b.Assignment[i] {
			t.Fatal("same seed produced different clusterings")
		}
	}
}

func TestRestartsImproveOrEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var points []bbv.Vector
	for b := 0; b < 6; b++ {
		points = append(points, blob(rng, b*2, 15)...)
	}
	one, _ := KMeans(points, Config{K: 6, Seed: 7, Restarts: 1})
	many, _ := KMeans(points, Config{K: 6, Seed: 7, Restarts: 5})
	if many.Inertia > one.Inertia+1e-9 {
		t.Errorf("restarts worsened inertia: %g vs %g", many.Inertia, one.Inertia)
	}
}

func TestIdenticalPoints(t *testing.T) {
	points := make([]bbv.Vector, 10)
	for i := range points {
		points[i] = bbv.Vector{1, 0, 0}
	}
	res, err := KMeans(points, Config{K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inertia > 1e-12 {
		t.Errorf("identical points inertia = %g", res.Inertia)
	}
}

func TestBIC(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	points := append(blob(rng, 0, 40), blob(rng, 9, 40)...)
	r1, _ := KMeans(points, Config{K: 1, Seed: 1})
	r2, _ := KMeans(points, Config{K: 2, Seed: 1, Restarts: 3})
	if BIC(points, r2) <= BIC(points, r1) {
		t.Errorf("BIC did not prefer the true k: k1=%g k2=%g",
			BIC(points, r1), BIC(points, r2))
	}
	if !math.IsInf(BIC(nil, r1), -1) {
		t.Error("BIC of no points should be -Inf")
	}
}

// TestNearestFarthestNearTies checks the squared-distance argmin and argmax
// against the oracle's comparisons of rounded distances where the two
// disagree: squared distances one ulp apart whose roots are equal. The
// oracle keeps the earlier index; comparing squares alone would not.
func TestNearestFarthestNearTies(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 50; trial++ {
		a, b := nearTie(t, rng) // |b|² is one ulp below |a|²
		origin := bbv.Vector{0, 0}
		cents := []bbv.Vector{a, b}
		flat := append(a.Clone(), b...)
		if got, want := nearest(origin, flat, 2, 2), oracleNearest(origin, cents); got != want || got != 0 {
			t.Fatalf("nearest = %d, oracle %d (want the earlier centroid 0)", got, want)
		}
		points := []bbv.Vector{b, a}
		m, err := newMatrix(points)
		if err != nil {
			t.Fatal(err)
		}
		assign := []int{0, 0}
		if got, want := farthest(m, make([]float64, 2), assign), oracleFarthest(points, []bbv.Vector{origin}, assign); got != want || got != 0 {
			t.Fatalf("farthest = %d, oracle %d (want the earlier point 0)", got, want)
		}
	}
}

// nearTie returns two 2-D points whose squared distances from the origin
// differ by exactly one ulp (b's smaller) and round to the same distance.
func nearTie(t *testing.T, rng *rand.Rand) (a, b bbv.Vector) {
	t.Helper()
	zero := bbv.Vector{0, 0}
	for tries := 0; tries < 10000; tries++ {
		a = bbv.Vector{0.1 + 0.2*rng.Float64(), 0.7 + 0.2*rng.Float64()}
		sqA := sumSquares(a)
		for x := a[1] - 64*ulp(a[1]); x <= a[1]+64*ulp(a[1]); x = math.Nextafter(x, 2) {
			b = bbv.Vector{x, a[0]}
			sqB := sumSquares(b)
			if sqB == math.Nextafter(sqA, 0) && zero.EuclideanDistance(b) == math.Sqrt(sqA) {
				return a, b
			}
		}
	}
	t.Fatal("no near tie found")
	return nil, nil
}

// sumSquares is the squared distance from the origin, summed in
// dimension order as bbv.Vector.EuclideanDistance sums it.
func sumSquares(v bbv.Vector) float64 {
	var s float64
	for _, x := range v {
		d := 0 - x
		s += d * d
	}
	return s
}

func ulp(x float64) float64 { return math.Nextafter(x, math.Inf(1)) - x }
