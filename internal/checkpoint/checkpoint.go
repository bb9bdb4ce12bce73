// Package checkpoint implements live-point-style checkpointing of the
// simulator — the acceleration the paper names first among its future work
// ("The livepoints used in [15] could easily be used to accelerate PGSS",
// §7, citing TurboSMARTS' simulation sampling with live-points).
//
// A Checkpoint captures the complete simulator state at an op position:
// architectural state (registers, memory, PC), cache contents, branch
// predictor state and the pipeline scoreboard. Restoring it and resuming
// detailed simulation is bit-identical to having simulated continuously,
// which the tests verify. A Library records checkpoints at fixed op
// strides during one detailed or warming pass; Seek then provides random
// access to any position by restoring the nearest checkpoint at or below
// it and warming forward, turning the sequential simulator into the
// random-access sample source that TurboSMARTS-style random-order
// sampling — and live-point-accelerated PGSS — needs.
package checkpoint

import (
	"fmt"
	"sort"

	"pgss/internal/branch"
	"pgss/internal/cache"
	"pgss/internal/cpu"
	"pgss/internal/pgsserrors"
)

// Checkpoint is one captured simulator state.
type Checkpoint struct {
	// Ops is the retired-op position the state corresponds to.
	Ops uint64

	Machine cpu.MachineState
	Timing  any // pipeline state (in-order or OoO)
	L1I     cache.State
	L1D     cache.State
	L2      cache.State
	Branch  branch.State
	// Cycle is never set: the cycle count lives in Timing. The field stays
	// because stored libraries are gob-encoded, and gob's type descriptor,
	// which names every field, is part of the stored bytes.
	Cycle uint64
	// Hier carries hierarchy-level counters.
	MemAccesses uint64
}

// Capture snapshots a core.
func Capture(c *cpu.Core) *Checkpoint {
	ck := new(Checkpoint)
	ck.capture(c)
	return ck
}

// capture overwrites ck with a snapshot of c, copying the machine data
// image, the cache contents and the predictor tables into ck's existing
// slices when they are large enough.
func (ck *Checkpoint) capture(c *cpu.Core) {
	ck.Ops = c.M.Retired()
	c.M.SnapshotInto(&ck.Machine)
	ck.Timing = c.T.SnapshotState()
	c.Hier.L1I.SnapshotInto(&ck.L1I)
	c.Hier.L1D.SnapshotInto(&ck.L1D)
	c.Hier.L2.SnapshotInto(&ck.L2)
	c.BP.SnapshotInto(&ck.Branch)
	ck.MemAccesses = c.Hier.MemAccesses
}

// Restore reinstates the checkpoint into a core built for the same program
// and configuration.
func (ck *Checkpoint) Restore(c *cpu.Core) error {
	if err := c.M.Restore(ck.Machine); err != nil {
		return err
	}
	if err := c.T.RestoreState(ck.Timing); err != nil {
		return err
	}
	if err := c.Hier.L1I.Restore(ck.L1I); err != nil {
		return err
	}
	if err := c.Hier.L1D.Restore(ck.L1D); err != nil {
		return err
	}
	if err := c.Hier.L2.Restore(ck.L2); err != nil {
		return err
	}
	if err := c.BP.Restore(ck.Branch); err != nil {
		return err
	}
	c.Hier.MemAccesses = ck.MemAccesses
	return nil
}

// Library holds checkpoints of one program run, ordered by op position.
type Library struct {
	checkpoints []*Checkpoint
	strideOps   uint64
}

// Record runs the core in functional-warming mode to completion (or
// maxOps), capturing a checkpoint every strideOps retired ops (plus one at
// op 0). Warming mode keeps caches and predictors live, so every
// checkpoint is a warm starting point — the live-point property.
func Record(c *cpu.Core, strideOps, maxOps uint64) (*Library, error) {
	if strideOps == 0 {
		return nil, pgsserrors.Invalidf("checkpoint: zero stride")
	}
	lib := &Library{strideOps: strideOps}
	lib.checkpoints = append(lib.checkpoints, Capture(c))
	buf := c.BlockBuf()
	next := strideOps
	// Warm in superblock batches clipped to the next capture (and maxOps)
	// boundary, so every checkpoint lands on exactly the op position the
	// historical per-op loop captured at.
	for !c.M.Halted() {
		chunk := next - c.M.Retired()
		if maxOps > 0 {
			if left := maxOps - c.M.Retired(); left < chunk {
				chunk = left
			}
		}
		if chunk > uint64(len(buf)) {
			chunk = uint64(len(buf))
		}
		n := c.StepWarmBlock(buf[:chunk])
		if c.M.Retired() >= next {
			lib.checkpoints = append(lib.checkpoints, Capture(c))
			next += strideOps
		}
		if maxOps > 0 && c.M.Retired() >= maxOps {
			break
		}
		if uint64(n) < chunk {
			break // halted mid-chunk; the error check below classifies it
		}
	}
	if err := c.M.Err(); err != nil {
		return nil, fmt.Errorf("checkpoint: recording halted abnormally: %w", err)
	}
	return lib, nil
}

// Len returns the number of stored checkpoints.
func (l *Library) Len() int { return len(l.checkpoints) }

// StrideOps returns the recording stride.
func (l *Library) StrideOps() uint64 { return l.strideOps }

// Nearest returns the checkpoint with the greatest op position ≤ pos.
func (l *Library) Nearest(pos uint64) *Checkpoint {
	i := sort.Search(len(l.checkpoints), func(i int) bool {
		return l.checkpoints[i].Ops > pos
	})
	if i == 0 {
		return l.checkpoints[0]
	}
	return l.checkpoints[i-1]
}

// Seek restores the nearest checkpoint at or below pos into the core and
// warms forward to exactly pos. It returns the number of warming ops spent
// (the random-access overhead the paper's §6 calls "the overhead of
// loading checkpoints").
func (l *Library) Seek(c *cpu.Core, pos uint64) (warmOps uint64, err error) {
	return warmFrom(l.Nearest(pos), c, pos)
}

// SeekFF moves the core's architectural state to exactly pos: it restores
// only the nearest checkpoint's machine state and fast-forwards, with no
// cache or predictor warming. The core's microarchitectural state is left
// as it was, so SeekFF suits consumers of the retire stream alone (window
// BBVs and MAVs): warming never feeds back into architectural execution,
// so the retire stream from pos on is the one Seek would give.
func (l *Library) SeekFF(c *cpu.Core, pos uint64) (ffOps uint64, err error) {
	if err := c.M.Restore(l.Nearest(pos).Machine); err != nil {
		return 0, err
	}
	return stepTo(c, pos, (*cpu.Core).StepFFBlock)
}

// SampleAt seeks to pos, runs warmup detailed ops unmeasured and sample
// detailed ops measured, returning the sample IPC and the cost split —
// one random-order live sample, as TurboSMARTS takes them.
func (l *Library) SampleAt(c *cpu.Core, pos, warmup, sample uint64) (ipc float64, seekOps uint64, err error) {
	seekOps, err = l.Seek(c, pos)
	if err != nil {
		return 0, seekOps, err
	}
	ipc, err = measure(c, pos, warmup, sample)
	return ipc, seekOps, err
}

// Sampler takes live samples on one core in any position order, each with
// exactly the IPC Library.SampleAt gives on a fresh core. It keeps a
// cursor: a reusable checkpoint of its own core, captured after the last
// sample's functional warm-forward and before its detailed warm-up. A
// sample whose position lies past the cursor and whose nearest library
// checkpoint lies before it warms forward from the cursor instead of the
// checkpoint. That is exact: the cursor is itself restore(checkpoint) +
// warm(→cursor) for that same checkpoint, and warming is chunk-invariant,
// so warming on to pos gives restore(checkpoint) + warm(→pos) bit for bit.
// A sample therefore resumes from the cursor only when the same sampler's
// previous sample lies below it in the same checkpoint interval; every
// other sample pays the capture and gains nothing from it.
type Sampler struct {
	lib       *Library
	core      *cpu.Core
	cursor    Checkpoint
	hasCursor bool
}

// NewSampler returns a sampler that owns c, a core built for the library's
// program and configuration. A Sampler is single-goroutine.
func (l *Library) NewSampler(c *cpu.Core) *Sampler {
	return &Sampler{lib: l, core: c}
}

// Sample takes one live sample from op position pos: warmup unmeasured
// detailed ops, then sample measured ones. It implements the parallel
// engine's Sampler.
func (s *Sampler) Sample(pos, warmup, sample uint64) (float64, error) {
	from := s.lib.Nearest(pos)
	if s.hasCursor && from.Ops < s.cursor.Ops && s.cursor.Ops <= pos {
		from = &s.cursor
	}
	if _, err := warmFrom(from, s.core, pos); err != nil {
		return 0, err
	}
	s.cursor.capture(s.core)
	s.hasCursor = true
	return measure(s.core, pos, warmup, sample)
}

// warmFrom restores ck into the core and warms forward to exactly pos.
func warmFrom(ck *Checkpoint, c *cpu.Core, pos uint64) (warmOps uint64, err error) {
	if err := ck.Restore(c); err != nil {
		return 0, err
	}
	return stepTo(c, pos, (*cpu.Core).StepWarmBlock)
}

// stepTo runs the core in one execution mode (a Step*Block method) up to
// exactly op position pos, in block-sized batches, and returns the ops
// stepped. It fails if the program ends first.
func stepTo(c *cpu.Core, pos uint64, step func(*cpu.Core, []cpu.Retired) int) (uint64, error) {
	buf := c.BlockBuf()
	var stepped uint64
	for c.M.Retired() < pos {
		chunk := min(pos-c.M.Retired(), uint64(len(buf)))
		n := step(c, buf[:chunk])
		stepped += uint64(n)
		if uint64(n) < chunk {
			return stepped, pgsserrors.Invalidf("checkpoint: program ended at %d before position %d",
				c.M.Retired(), pos)
		}
	}
	return stepped, nil
}

// measure runs warmup detailed ops unmeasured, then up to sample detailed
// ops measured, and returns the measured IPC. A sample the program's end
// cuts short is measured over the ops it got.
func measure(c *cpu.Core, pos, warmup, sample uint64) (float64, error) {
	if _, err := stepTo(c, c.M.Retired()+warmup, (*cpu.Core).StepDetailedBlock); err != nil {
		return 0, pgsserrors.Invalidf("checkpoint: program ended during warm-up")
	}
	startCycles := c.T.Cycle()
	// A short sample is not an error: done counts the ops it got.
	done, _ := stepTo(c, c.M.Retired()+sample, (*cpu.Core).StepDetailedBlock)
	cycles := c.T.Cycle() - startCycles
	if cycles == 0 || done == 0 {
		return 0, pgsserrors.Invalidf("checkpoint: empty sample at %d", pos)
	}
	return float64(done) / float64(cycles), nil
}
