package parallel

import (
	"context"
	"fmt"

	"pgss/internal/bbv"
	"pgss/internal/checkpoint"
	"pgss/internal/cpu"
	"pgss/internal/pgsserrors"
)

// oracleLiveSource is LiveSource as it was before windows ran functionally
// and samplers resumed from a cursor: every shard restores the full
// nearest checkpoint and warms caches and predictors through its windows,
// and every sample restores from the library. It is the oracle
// TestLiveWindowsMatchOracle checks the live source against.
type oracleLiveSource struct {
	*LiveSource
}

func (s oracleLiveSource) Windows(ctx context.Context, ffOps uint64, first int, out []Window) error {
	c, err := s.newCore()
	if err != nil {
		return fmt.Errorf("parallel: core factory: %w", err)
	}
	start := uint64(first) * ffOps
	if _, err := s.lib.Seek(c, start); err != nil {
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
		var done, run uint64
		for done < want && !c.M.Halted() {
			chunk := want - done
			if chunk > uint64(len(buf)) {
				chunk = uint64(len(buf))
			}
			n := c.StepWarmBlock(buf[:chunk])
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
		tracker.DropPending()
		pos += done
	}
	return nil
}

func (s oracleLiveSource) NewSampler() (Sampler, error) {
	c, err := s.newCore()
	if err != nil {
		return nil, fmt.Errorf("parallel: core factory: %w", err)
	}
	return &oracleLiveSampler{lib: s.lib, core: c}, nil
}

type oracleLiveSampler struct {
	lib  *checkpoint.Library
	core *cpu.Core
}

func (s *oracleLiveSampler) Sample(pos, warm, sample uint64) (float64, error) {
	ipc, _, err := s.lib.SampleAt(s.core, pos, warm, sample)
	return ipc, err
}
