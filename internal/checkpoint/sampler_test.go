package checkpoint

import (
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"pgss/internal/branch"
	"pgss/internal/cache"
	"pgss/internal/cpu"
	"pgss/internal/workload"
)

// liveFixture is one benchmark program at test size with its checkpoint
// library.
type liveFixture struct {
	newCore func() *cpu.Core
	lib     *Library
	total   uint64
}

func newLiveFixture(t *testing.T, spec *workload.Spec, ops, stride uint64) liveFixture {
	t.Helper()
	prog, err := spec.Build(ops)
	if err != nil {
		t.Fatal(err)
	}
	newCore := func() *cpu.Core {
		c, err := cpu.NewCore(cpu.MustNewMachine(prog), cpu.DefaultCoreConfig())
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	rec := newCore()
	lib, err := Record(rec, stride, 0)
	if err != nil {
		t.Fatal(err)
	}
	return liveFixture{newCore: newCore, lib: lib, total: rec.M.Retired()}
}

// TestLiveSamplerMatchesSampleAt drives one Sampler per position sequence
// through orders that exercise every cursor decision — ascending (the
// cursor is taken), descending (the library is taken), repeated positions,
// several positions inside one stride interval, exact checkpoint
// boundaries, a position one op before the cursor, op 0 and the last
// sampleable op. Every IPC must be bit-equal, and the core's state after
// the sample must match, to the stateless oracle on a fresh core (run once
// per distinct position) and to the public Library.SampleAt on one core
// shared by the sequence (SampleAt keeps no state between calls).
func TestLiveSamplerMatchesSampleAt(t *testing.T) {
	const (
		ops    = 300_000
		stride = 50_000
		warm   = 3000
		sample = 1000
	)
	for si, spec := range workload.PaperTen() {
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			fx := newLiveFixture(t, spec, ops, stride)
			// The last position whose warm-up completes and whose sample
			// measures at least one op.
			last := fx.total - warm - 1
			if _, _, err := oracleSampleAt(fx.lib, fx.newCore(), last, warm, sample); err != nil {
				t.Fatalf("oracle cannot sample the last sampleable op %d: %v", last, err)
			}
			if _, _, err := oracleSampleAt(fx.lib, fx.newCore(), last+1, warm, sample); err == nil {
				t.Fatalf("oracle samples op %d, past the last sampleable op", last+1)
			}

			// Every sequence draws from one small pool of positions, so the
			// oracle runs once per distinct position.
			rng := rand.New(rand.NewSource(int64(si + 1)))
			pool := make([]uint64, 8)
			for i := range pool {
				pool[i] = uint64(rng.Int63n(int64(last + 1)))
			}
			sort.Slice(pool, func(i, j int) bool { return pool[i] < pool[j] })
			descending := append([]uint64(nil), pool...)
			sort.Slice(descending, func(i, j int) bool { return descending[i] > descending[j] })
			shuffled := append([]uint64(nil), pool...)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			var repeated []uint64
			for _, p := range shuffled[:4] {
				repeated = append(repeated, p, p)
			}
			k := uint64(rng.Int63n(int64(last/stride))) * stride
			interval := []uint64{k + 2*stride/3, k + stride/3, k + stride - 1, k + stride/2, k + 1}
			intervalUp := append([]uint64(nil), interval...)
			sort.Slice(intervalUp, func(i, j int) bool { return intervalUp[i] < intervalUp[j] })
			boundaries := []uint64{stride - 1, stride, stride + 1, 2*stride - 1, 2 * stride, 2*stride + 1, 3 * stride}
			seqs := []struct {
				name string
				pos  []uint64
			}{
				{"ascending", pool},
				{"descending", descending},
				{"shuffled", shuffled},
				{"repeated", repeated},
				{"interval", interval},
				{"interval-ascending", intervalUp},
				{"boundaries", boundaries},
				{"edges", []uint64{0, 0, 1, last, last + 1, last, 0, k + stride/2 + 1, k + stride/2, k, last}},
			}
			type outcome struct {
				ipc   float64
				state coreSummary
				err   error
			}
			oracle := map[uint64]outcome{}
			for _, seq := range seqs {
				smp := fx.lib.NewSampler(fx.newCore())
				shared := fx.newCore()
				for i, pos := range seq.pos {
					var got, public outcome
					got.ipc, got.err = smp.Sample(pos, warm, sample)
					got.state = summarize(smp.core)
					want, ok := oracle[pos]
					if !ok {
						c := fx.newCore()
						want.ipc, _, want.err = oracleSampleAt(fx.lib, c, pos, warm, sample)
						want.state = summarize(c)
						oracle[pos] = want
					}
					public.ipc, _, public.err = fx.lib.SampleAt(shared, pos, warm, sample)
					public.state = summarize(shared)
					if (got.err != nil) != (want.err != nil) || (public.err != nil) != (want.err != nil) {
						t.Fatalf("%s[%d] pos %d: errors sampler=%v SampleAt=%v oracle=%v",
							seq.name, i, pos, got.err, public.err, want.err)
					}
					if want.err != nil {
						continue
					}
					if math.Float64bits(got.ipc) != math.Float64bits(want.ipc) || got.state != want.state {
						t.Errorf("%s[%d] pos %d: sampler IPC %v state %+v, oracle %v %+v",
							seq.name, i, pos, got.ipc, got.state, want.ipc, want.state)
					}
					if math.Float64bits(public.ipc) != math.Float64bits(want.ipc) || public.state != want.state {
						t.Errorf("%s[%d] pos %d: SampleAt IPC %v state %+v, oracle %v %+v",
							seq.name, i, pos, public.ipc, public.state, want.ipc, want.state)
					}
				}
			}
		})
	}
}

// coreSummary fingerprints a core after a sample: its position, cycle
// count and every cache and predictor counter. Cores that took the same
// sample from the same state agree on all of it; a sample that started
// from a different position or microarchitectural state almost never
// does, even where a regular kernel gives it the same IPC.
type coreSummary struct {
	Retired, Cycle, MemAccesses uint64
	PC                          int
	L1I, L1D, L2                cache.Stats
	Branch                      branch.Stats
}

func summarize(c *cpu.Core) coreSummary {
	return coreSummary{
		Retired:     c.M.Retired(),
		Cycle:       c.T.Cycle(),
		MemAccesses: c.Hier.MemAccesses,
		PC:          c.M.PC(),
		L1I:         c.Hier.L1I.Stats(),
		L1D:         c.Hier.L1D.Stats(),
		L2:          c.Hier.L2.Stats(),
		Branch:      c.BP.Stats(),
	}
}

// TestSeekMatchesOracle: Seek leaves a fresh core in exactly the state the
// stateless oracle seek does, and SeekFF in exactly the same architectural
// state, from which both retire the same ops.
func TestSeekMatchesOracle(t *testing.T) {
	const stride = 50_000
	fx := newLiveFixture(t, workload.PaperTen()[6], 300_000, stride)
	for _, pos := range []uint64{0, 1, stride - 1, stride, stride + 1, 3*stride + 777, fx.total} {
		want := fx.newCore()
		wantOps, err := oracleSeek(fx.lib, want, pos)
		if err != nil {
			t.Fatal(err)
		}
		got := fx.newCore()
		gotOps, err := fx.lib.Seek(got, pos)
		if err != nil {
			t.Fatal(err)
		}
		if gotOps != wantOps || !reflect.DeepEqual(Capture(got), Capture(want)) {
			t.Errorf("Seek(%d): state or warm ops (%d vs %d) differ from the oracle", pos, gotOps, wantOps)
		}
		ff := fx.newCore()
		ffOps, err := fx.lib.SeekFF(ff, pos)
		if err != nil {
			t.Fatal(err)
		}
		if ffOps != wantOps || !reflect.DeepEqual(ff.M.Snapshot(), want.M.Snapshot()) {
			t.Errorf("SeekFF(%d): machine state or ops (%d vs %d) differ from Seek", pos, ffOps, wantOps)
		}
		a, b := make([]cpu.Retired, 4096), make([]cpu.Retired, 4096)
		na, nb := want.StepWarmBlock(a), ff.StepFFBlock(b)
		if na != nb || !reflect.DeepEqual(a[:na], b[:nb]) {
			t.Errorf("SeekFF(%d): retire stream differs from Seek's", pos)
		}
	}
	if _, err := fx.lib.SeekFF(fx.newCore(), fx.total+1); err == nil {
		t.Error("SeekFF beyond the program's end accepted")
	}
}

// TestLoadedLibraryOutlivesMapping: Load unmaps the library file once it is
// decoded, so a loaded library must own every byte it holds. It must equal
// the saved one and restore and sample bit-identically after the mapping
// is gone (a checkpoint that aliased the unmapped file would fault here).
func TestLoadedLibraryOutlivesMapping(t *testing.T) {
	const stride = 50_000
	fx := newLiveFixture(t, workload.PaperTen()[6], 300_000, stride)
	path := filepath.Join(t.TempDir(), "lib.ckpt")
	if err := fx.lib.Save(nil, path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	if !reflect.DeepEqual(got.checkpoints, fx.lib.checkpoints) {
		t.Fatal("loaded checkpoints differ from the saved ones")
	}
	for _, pos := range []uint64{0, stride, 2*stride + 4321} {
		want, _, err := fx.lib.SampleAt(fx.newCore(), pos, 3000, 1000)
		if err != nil {
			t.Fatal(err)
		}
		ipc, _, err := got.SampleAt(fx.newCore(), pos, 3000, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(ipc) != math.Float64bits(want) {
			t.Errorf("pos %d: loaded library IPC %v, recorded %v", pos, ipc, want)
		}
	}
}
