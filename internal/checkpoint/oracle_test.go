package checkpoint

import (
	"pgss/internal/cpu"
	"pgss/internal/pgsserrors"
)

// This file keeps the stateless seek-and-sample path as it was before
// samplers resumed from a cursor and before seeks shared one stepping
// loop: every sample restores the nearest library checkpoint into the core
// and warms forward. It is the oracle the Sampler and the refactored
// Seek/SampleAt are checked against.

// oracleSeek restores the nearest checkpoint at or below pos into the core
// and warms forward to exactly pos.
func oracleSeek(l *Library, c *cpu.Core, pos uint64) (warmOps uint64, err error) {
	ck := l.Nearest(pos)
	if err := ck.Restore(c); err != nil {
		return 0, err
	}
	buf := c.BlockBuf()
	for c.M.Retired() < pos {
		chunk := pos - c.M.Retired()
		if chunk > uint64(len(buf)) {
			chunk = uint64(len(buf))
		}
		n := c.StepWarmBlock(buf[:chunk])
		warmOps += uint64(n)
		if uint64(n) < chunk {
			return warmOps, pgsserrors.Invalidf("checkpoint: program ended at %d before position %d",
				c.M.Retired(), pos)
		}
	}
	return warmOps, nil
}

// oracleSampleAt seeks to pos, runs warmup detailed ops unmeasured and
// sample detailed ops measured, returning the sample IPC and the cost
// split.
func oracleSampleAt(l *Library, c *cpu.Core, pos, warmup, sample uint64) (ipc float64, seekOps uint64, err error) {
	seekOps, err = oracleSeek(l, c, pos)
	if err != nil {
		return 0, seekOps, err
	}
	buf := c.BlockBuf()
	for got := uint64(0); got < warmup; {
		chunk := warmup - got
		if chunk > uint64(len(buf)) {
			chunk = uint64(len(buf))
		}
		n := c.StepDetailedBlock(buf[:chunk])
		got += uint64(n)
		if uint64(n) < chunk {
			return 0, seekOps, pgsserrors.Invalidf("checkpoint: program ended during warm-up")
		}
	}
	startCycles := c.T.Cycle()
	var done uint64
	for done < sample {
		chunk := sample - done
		if chunk > uint64(len(buf)) {
			chunk = uint64(len(buf))
		}
		n := c.StepDetailedBlock(buf[:chunk])
		done += uint64(n)
		if uint64(n) < chunk {
			break
		}
	}
	cycles := c.T.Cycle() - startCycles
	if cycles == 0 || done == 0 {
		return 0, seekOps, pgsserrors.Invalidf("checkpoint: empty sample at %d", pos)
	}
	return float64(done) / float64(cycles), seekOps, nil
}
