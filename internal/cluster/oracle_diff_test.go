package cluster_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pgss/internal/bbv"
	"pgss/internal/cluster"
	"pgss/internal/cpu"
	"pgss/internal/profile"
	"pgss/internal/sampling"
	"pgss/internal/workload"
)

// requireOracle runs KMeans and the pre-rewrite oracle on the same input
// and fails unless every Result field is DeepEqual (and the input is left
// untouched).
func requireOracle(t *testing.T, name string, points []bbv.Vector, cfg cluster.Config) {
	t.Helper()
	before := make([]bbv.Vector, len(points))
	for i, p := range points {
		before[i] = p.Clone()
	}
	got, err := cluster.KMeans(points, cfg)
	want, werr := cluster.OracleKMeans(points, cfg)
	if (err == nil) != (werr == nil) {
		t.Fatalf("%s: error %v, oracle error %v", name, err, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: KMeans differs from the oracle\n got  %+v\n want %+v", name, got, want)
	}
	if !reflect.DeepEqual(points, before) {
		t.Fatalf("%s: KMeans modified its input", name)
	}
}

// TestKMeansMatchesOracle is the differential test of the flat-matrix
// k-means against the implementation it replaced.
func TestKMeansMatchesOracle(t *testing.T) {
	t.Run("paper-ten-sweep", func(t *testing.T) {
		const ops = 3_000_000
		sweep := sampling.SimPointSweep(10)
		for _, spec := range workload.PaperTen() {
			p := recordProfile(t, spec, ops)
			for _, cfg := range sweep {
				points, err := p.BBVSeries(cfg.IntervalOps)
				if err != nil {
					t.Fatal(err)
				}
				if len(points) == 0 {
					continue // interval longer than the test-size run
				}
				requireOracle(t, fmt.Sprintf("%s/%s", spec.Name, cfg), points,
					cluster.Config{K: cfg.K, Seed: cfg.Seed, Restarts: cfg.Restarts})
			}
		}
	})

	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		for trial := 0; trial < 300; trial++ {
			points := randomPoints(rng, 1+rng.Intn(40), 1+rng.Intn(8))
			n := len(points)
			for _, k := range []int{1, 1 + rng.Intn(n), n, n + 1 + rng.Intn(5)} {
				cfg := cluster.Config{
					K:        k,
					Seed:     rng.Int63n(1000),
					Restarts: rng.Intn(5), // 0 means the default of 1
				}
				if rng.Intn(3) == 0 {
					cfg.MaxIters = 1 + rng.Intn(3) // exit on the iteration cap
				}
				requireOracle(t, fmt.Sprintf("trial %d k=%d", trial, k), points, cfg)
			}
		}
	})

	t.Run("empty-clusters", func(t *testing.T) {
		// K at or above n with duplicate points: k-means++ runs out of
		// weight and picks duplicate centroids, the later duplicates empty,
		// and the farthest-point reseed runs, often on later iterations
		// too.
		rng := rand.New(rand.NewSource(12))
		for trial := 0; trial < 400; trial++ {
			points := randomPoints(rng, 2+rng.Intn(40), 1+rng.Intn(8))
			cfg := cluster.Config{K: len(points) + rng.Intn(3), Seed: int64(trial), Restarts: 1 + rng.Intn(3)}
			requireOracle(t, fmt.Sprintf("trial %d", trial), points, cfg)
		}
	})

	t.Run("near-ties", func(t *testing.T) {
		// The origin is one ulp of squared distance nearer to b than to a,
		// yet at the same rounded distance from both. When a is the
		// earlier centroid the oracle keeps it; an argmin over squared
		// distances alone would move the origin to b.
		rng := rand.New(rand.NewSource(13))
		for trial := 0; trial < 20; trial++ {
			a, b := cluster.NearTie(t, rng)
			points := []bbv.Vector{{0, 0}, a, b}
			for seed := int64(0); seed < 32; seed++ {
				requireOracle(t, fmt.Sprintf("trial %d seed %d", trial, seed), points,
					cluster.Config{K: 2, Seed: seed})
			}
		}
	})
}

// randomPoints draws n non-negative points of the given dimension with
// duplicates and zero vectors mixed in.
func randomPoints(rng *rand.Rand, n, dim int) []bbv.Vector {
	points := make([]bbv.Vector, n)
	for i := range points {
		switch {
		case i > 0 && rng.Intn(4) == 0:
			points[i] = points[rng.Intn(i)].Clone()
		case rng.Intn(8) == 0:
			points[i] = make(bbv.Vector, dim)
		default:
			v := make(bbv.Vector, dim)
			for j := range v {
				v[j] = rng.Float64()
			}
			points[i] = v.Normalize()
		}
	}
	return points
}

// recordProfile records a detailed profile of spec with the suite's BBV
// hash.
func recordProfile(t *testing.T, spec *workload.Spec, ops uint64) *profile.Profile {
	t.Helper()
	prog, err := spec.Build(ops)
	if err != nil {
		t.Fatal(err)
	}
	core, err := cpu.NewCore(cpu.MustNewMachine(prog), cpu.DefaultCoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, err := profile.Record(core, bbv.MustNewHash(5, 42), profile.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return p
}
