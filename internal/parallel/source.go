package parallel

import (
	"context"
	"fmt"

	"pgss/internal/bbv"
	"pgss/internal/checkpoint"
	"pgss/internal/cpu"
	"pgss/internal/pgsserrors"
	"pgss/internal/profile"
)

// Window is one precomputed fast-forward window.
type Window struct {
	// Ops covered by the window (the final window may be short).
	Ops uint64
	// BBV is the normalised basic-block vector of the window.
	BBV bbv.Vector
	// MAV is the normalised memory-access vector of the window; nil when
	// the source has no MAV channel.
	MAV bbv.Vector
}

// Source is a benchmark execution the parallel engine can shard: window
// BBVs must be computable for any contiguous range independently, and
// detailed samples must be executable at any op position.
type Source interface {
	// Benchmark returns the workload name.
	Benchmark() string
	// TotalOps returns the full run length.
	TotalOps() uint64
	// TrueIPC returns the whole-program IPC for error reporting.
	TrueIPC() float64
	// Windows computes the windows with indices [first, first+len(out)) at
	// fast-forward granularity ffOps, filling out. Implementations must be
	// safe for concurrent calls over disjoint ranges.
	Windows(ctx context.Context, ffOps uint64, first int, out []Window) error
	// NewSampler returns a detailed-sample executor owned by a single
	// worker goroutine.
	NewSampler() (Sampler, error)
}

// Sampler executes one detailed sample: warm unmeasured detailed ops
// followed by sample measured ops starting at op position pos, returning
// the measured IPC. An IPC ≤ 0 marks the sample unmeasurable (nothing is
// recorded); an error aborts the run.
type Sampler interface {
	Sample(pos, warm, sample uint64) (float64, error)
}

// ProfileSource replays a recorded profile. Replayed parallel runs are
// bit-identical to serial core.Run over sampling.NewProfileTarget of the
// same profile: windows sum the same recorded raw BBVs and samples read
// the same recorded cycle counts.
type ProfileSource struct {
	p *profile.Profile
}

// NewProfileSource wraps p.
func NewProfileSource(p *profile.Profile) *ProfileSource { return &ProfileSource{p: p} }

// Benchmark implements Source.
func (s *ProfileSource) Benchmark() string { return s.p.Benchmark }

// TotalOps implements Source.
func (s *ProfileSource) TotalOps() uint64 { return s.p.TotalOps }

// TrueIPC implements Source.
func (s *ProfileSource) TrueIPC() float64 { return s.p.TrueIPC() }

// Windows implements Source.
func (s *ProfileSource) Windows(ctx context.Context, ffOps uint64, first int, out []Window) error {
	pos := uint64(first) * ffOps
	for i := range out {
		if err := ctx.Err(); err != nil {
			return err
		}
		raw, err := s.p.BBVWindow(pos, ffOps)
		if err != nil {
			return err
		}
		if raw == nil {
			return pgsserrors.Invalidf(
				"parallel: %s: window %d starts at %d, past the %d-op profile",
				s.p.Benchmark, first+i, pos, s.p.TotalOps)
		}
		out[i].BBV = raw.Normalize()
		if s.p.HasMAV() {
			rawMAV, err := s.p.MAVWindow(pos, ffOps)
			if err != nil {
				return err
			}
			out[i].MAV = rawMAV.Normalize()
		}
		out[i].Ops = ffOps
		if remaining := s.p.TotalOps - pos; remaining < ffOps {
			out[i].Ops = remaining
		}
		pos += ffOps
	}
	return nil
}

// NewSampler implements Source. The profile's cycle prefix sums are built
// once under a sync.Once, so concurrent samplers share the profile safely.
func (s *ProfileSource) NewSampler() (Sampler, error) {
	return profileSampler{p: s.p}, nil
}

type profileSampler struct {
	p *profile.Profile
}

func (s profileSampler) Sample(pos, warm, sample uint64) (float64, error) {
	return s.p.IPCWindow(pos+warm, sample)
}

// LiveSource drives cycle-level simulators through a checkpoint library:
// every shard and every sample worker owns an independent core. A shard
// restores the nearest checkpoint's machine state and fast-forwards; a
// sampler restores the nearest checkpoint, or its own nearer cursor, and
// warms forward. Restoring is bit-identical to continuous simulation, and
// window BBVs drop the tracker's pending ops at every boundary, so the
// windows — and therefore the whole run — are invariant to the shard
// layout: the engine returns identical results for any
// Shards/SampleWorkers setting.
//
// Live semantics differ in one documented respect from the serial
// sampling.LiveTarget: the serial target carries pending (post-last-branch)
// ops across window boundaries, while the engine's windows are
// self-contained. The engine with Shards=1 is the reference for the engine
// with Shards=N.
type LiveSource struct {
	lib     *checkpoint.Library
	hash    *bbv.Hash
	mavHash *bbv.Hash // nil = MAV channel off
	newCore func() (*cpu.Core, error)
	name    string
	total   uint64
	trueIPC float64
}

// EnableMAV attaches a memory-access-vector hash (from bbv.NewMAVHash):
// subsequent Windows calls fill Window.MAV. MAV accumulation has no
// pending state, so the vectors are shard-layout-invariant by
// construction.
func (s *LiveSource) EnableMAV(h *bbv.Hash) { s.mavHash = h }

// NewLiveSource builds a live source over a recorded checkpoint library.
// newCore must build a fresh core of the same program and configuration the
// library was recorded with; totalOps is the recorded program length and
// trueIPC the reference IPC (0 when unknown).
func NewLiveSource(lib *checkpoint.Library, hash *bbv.Hash, newCore func() (*cpu.Core, error), totalOps uint64, trueIPC float64) (*LiveSource, error) {
	if lib == nil || lib.Len() == 0 {
		return nil, pgsserrors.Invalidf("parallel: empty checkpoint library")
	}
	if totalOps == 0 {
		return nil, pgsserrors.Invalidf("parallel: zero totalOps for live source")
	}
	probe, err := newCore()
	if err != nil {
		return nil, fmt.Errorf("parallel: core factory: %w", err)
	}
	return &LiveSource{
		lib:     lib,
		hash:    hash,
		newCore: newCore,
		name:    probe.M.Program().Name,
		total:   totalOps,
		trueIPC: trueIPC,
	}, nil
}

// Benchmark implements Source.
func (s *LiveSource) Benchmark() string { return s.name }

// TotalOps implements Source.
func (s *LiveSource) TotalOps() uint64 { return s.total }

// TrueIPC implements Source.
func (s *LiveSource) TrueIPC() float64 { return s.trueIPC }

// Windows implements Source: one shard, one core. Windows depend only on
// the architectural retire stream (taken-branch addresses, op classes and
// data addresses), which cache and predictor warming never feed back into,
// so the shard runs functionally: its core restores the nearest
// checkpoint's machine state, fast-forwards to the shard's start and then
// through the shard's windows with the BBV tracker attached.
func (s *LiveSource) Windows(ctx context.Context, ffOps uint64, first int, out []Window) error {
	c, err := s.newCore()
	if err != nil {
		return fmt.Errorf("parallel: core factory: %w", err)
	}
	start := uint64(first) * ffOps
	if _, err := s.lib.SeekFF(c, start); err != nil {
		return fmt.Errorf("parallel: shard at window %d: %w", first, err)
	}
	tracker := bbv.NewTracker(s.hash)
	var mavt *bbv.MAVTracker
	if s.mavHash != nil {
		mavt = bbv.NewMAVTracker(s.mavHash)
	}
	buf := c.BlockBuf()
	pos := start
	for i := range out {
		if err := ctx.Err(); err != nil {
			return err
		}
		want := ffOps
		if remaining := s.total - pos; remaining < want {
			want = remaining
		}
		// Superblock-batched fast-forward with run-batched tracker updates;
		// exact-integer float accumulation makes the window BBVs identical
		// to the historical per-op loop.
		var done, run uint64
		for done < want && !c.M.Halted() {
			chunk := want - done
			if chunk > uint64(len(buf)) {
				chunk = uint64(len(buf))
			}
			n := c.StepFFBlock(buf[:chunk])
			for j := range buf[:n] {
				run++
				if buf[j].Taken {
					tracker.RetireOps(run)
					tracker.TakenBranch(buf[j].Addr)
					run = 0
				}
				if mavt != nil && buf[j].Op.IsMem() {
					mavt.Access(buf[j].MemAddr)
				}
			}
			done += uint64(n)
			if uint64(n) < chunk {
				break
			}
		}
		tracker.RetireOps(run)
		if err := c.M.Err(); err != nil {
			return fmt.Errorf("parallel: %s halted abnormally in window %d: %w", s.name, first+i, err)
		}
		if done < want {
			return pgsserrors.Invalidf(
				"parallel: %s ended at %d ops inside window %d, library declares %d",
				s.name, pos+done, first+i, s.total)
		}
		out[i].Ops = done
		out[i].BBV = tracker.TakeVector()
		if mavt != nil {
			out[i].MAV = mavt.TakeVector()
		}
		// Self-contained windows: ops retired since the last taken branch
		// do not leak into the next window, whichever shard computes it.
		tracker.DropPending()
		pos += done
	}
	return nil
}

// NewSampler implements Source: each worker owns a core it restores from
// the library or from its own cursor (TurboSMARTS-style random-access live
// samples; see checkpoint.Sampler).
func (s *LiveSource) NewSampler() (Sampler, error) {
	c, err := s.newCore()
	if err != nil {
		return nil, fmt.Errorf("parallel: core factory: %w", err)
	}
	return s.lib.NewSampler(c), nil
}
