// Package cpu implements the simulated processor: a functional interpreter
// of the ISA (package isa) and a cycle-accurate timing model of a 4-wide
// in-order superscalar core attached to the cache hierarchy (package cache)
// and branch prediction unit (package branch) — the configuration used by
// the paper's evaluation (§5).
//
// The interpreter (Machine) owns all architectural state. The timing model
// (Timing) consumes the retire stream and owns all microarchitectural
// state. Core combines them and exposes the three execution modes every
// sampled-simulation technique is built from: plain fast-forward, functional
// warming, and detailed simulation.
package cpu

import (
	"errors"
	"fmt"

	"pgss/internal/isa"
	"pgss/internal/pgsserrors"
	"pgss/internal/program"
)

// Retired describes one retired instruction: everything the timing model,
// warming machinery and BBV tracker need to know about it.
type Retired struct {
	PC   int    // instruction index
	Addr uint64 // architectural instruction address

	Op   isa.Opcode
	Dst  isa.Reg
	Src1 isa.Reg
	Src2 isa.Reg

	MemAddr uint64 // byte address, valid when Op.IsMem()

	// Control-flow resolution, valid when Op.IsControl().
	Taken      bool
	TargetAddr uint64
	ReturnAddr uint64 // for calls: the link address
	IsCall     bool
	IsReturn   bool
}

// ErrWildJump is wrapped by Machine errors for computed jumps that leave
// the code image.
var ErrWildJump = errors.New("jump target outside code image")

// Machine is the functional interpreter: registers, data memory and PC.
type Machine struct {
	prog *program.Program
	code []isa.Inst
	img  *progImage // decode-once image for StepBlock, pinned on first use

	regs [isa.NumRegs]int64
	data []int64

	pc      int
	retired uint64
	halted  bool
	err     error

	// WildAccesses counts data accesses that fell outside the data segment
	// and were wrapped; nonzero values indicate a workload bug.
	WildAccesses uint64
}

// NewMachine builds the architectural state for prog and resets it.
func NewMachine(prog *program.Program) (*Machine, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{prog: prog}
	m.Reset()
	return m, nil
}

// MustNewMachine is NewMachine that panics on error.
func MustNewMachine(prog *program.Program) *Machine {
	m, err := NewMachine(prog)
	if err != nil {
		panic(err)
	}
	return m
}

// Reset restores initial architectural state.
func (m *Machine) Reset() {
	m.code = m.prog.Code
	m.regs = [isa.NumRegs]int64{}
	m.regs[isa.GP] = int64(program.DataBase)
	if m.data == nil || len(m.data) != m.prog.DataWords {
		m.data = make([]int64, m.prog.DataWords)
	} else {
		for i := range m.data {
			m.data[i] = 0
		}
	}
	for w, v := range m.prog.Init {
		m.data[w] = v
	}
	m.pc = m.prog.Entry
	m.retired = 0
	m.halted = false
	m.err = nil
	m.WildAccesses = 0
}

// Program returns the program being executed.
func (m *Machine) Program() *program.Program { return m.prog }

// Halted reports whether the program has stopped (HALT or error).
func (m *Machine) Halted() bool { return m.halted }

// Err returns the error that halted the machine, if any.
func (m *Machine) Err() error { return m.err }

// Retired returns the number of retired instructions.
func (m *Machine) Retired() uint64 { return m.retired }

// PC returns the current instruction index.
func (m *Machine) PC() int { return m.pc }

// Reg returns the value of register r.
func (m *Machine) Reg(r isa.Reg) int64 { return m.regs[r] }

// SetReg sets register r (r0 stays zero). Exposed for tests.
func (m *Machine) SetReg(r isa.Reg, v int64) {
	if r != isa.Zero {
		m.regs[r] = v
	}
}

// DataWord returns data word w. Exposed for tests and examples.
func (m *Machine) DataWord(w int) int64 { return m.data[w] }

// wordIndex converts a byte address into a data-word index, wrapping
// out-of-segment accesses deterministically.
func (m *Machine) wordIndex(addr uint64) int {
	idx := int64(addr-program.DataBase) / 8
	if idx >= 0 && idx < int64(len(m.data)) {
		return int(idx)
	}
	m.WildAccesses++
	n := int64(len(m.data))
	idx %= n
	if idx < 0 {
		idx += n
	}
	return int(idx)
}

// MachineState is a serialisable snapshot of architectural state (see the
// checkpoint package).
type MachineState struct {
	Regs         [isa.NumRegs]int64
	Data         []int64
	PC           int
	Retired      uint64
	Halted       bool
	WildAccesses uint64
}

// Snapshot captures the architectural state. The data image is copied, so
// snapshots are O(memory size).
func (m *Machine) Snapshot() MachineState {
	var s MachineState
	m.SnapshotInto(&s)
	return s
}

// SnapshotInto is Snapshot into s, copying the data image into s.Data's
// backing array when it is large enough, so repeated captures into one
// state do not allocate.
func (m *Machine) SnapshotInto(s *MachineState) {
	*s = MachineState{
		Regs:         m.regs,
		Data:         append(s.Data[:0], m.data...),
		PC:           m.pc,
		Retired:      m.retired,
		Halted:       m.halted,
		WildAccesses: m.WildAccesses,
	}
}

// Restore reinstates a snapshot taken from a machine running the same
// program.
func (m *Machine) Restore(s MachineState) error {
	if len(s.Data) != len(m.data) {
		return pgsserrors.Invalidf("cpu: snapshot data %d words, machine has %d", len(s.Data), len(m.data))
	}
	m.regs = s.Regs
	copy(m.data, s.Data)
	m.pc = s.PC
	m.retired = s.Retired
	m.halted = s.Halted
	m.err = nil
	m.WildAccesses = s.WildAccesses
	return nil
}

// Step executes one instruction, filling *r with its retire record. It
// returns false when the machine is halted (r is left untouched).
func (m *Machine) Step(r *Retired) bool {
	if m.halted {
		return false
	}
	if m.pc < 0 || m.pc >= len(m.code) {
		m.halted = true
		m.err = fmt.Errorf("cpu: pc %d: %w", m.pc, ErrWildJump)
		return false
	}
	in := &m.code[m.pc]
	r.PC = m.pc
	r.Addr = program.AddrOf(m.pc)
	r.Op = in.Op
	r.Dst = in.Dst
	r.Src1 = in.Src1
	r.Src2 = in.Src2
	r.Taken = false
	r.IsCall = false
	r.IsReturn = false

	next := m.pc + 1
	switch in.Op {
	case isa.NOP:
	case isa.ADD:
		m.set(in.Dst, m.regs[in.Src1]+m.regs[in.Src2])
	case isa.SUB:
		m.set(in.Dst, m.regs[in.Src1]-m.regs[in.Src2])
	case isa.AND:
		m.set(in.Dst, m.regs[in.Src1]&m.regs[in.Src2])
	case isa.OR:
		m.set(in.Dst, m.regs[in.Src1]|m.regs[in.Src2])
	case isa.XOR:
		m.set(in.Dst, m.regs[in.Src1]^m.regs[in.Src2])
	case isa.SLL:
		m.set(in.Dst, m.regs[in.Src1]<<(uint64(m.regs[in.Src2])&63))
	case isa.SRL:
		m.set(in.Dst, int64(uint64(m.regs[in.Src1])>>(uint64(m.regs[in.Src2])&63)))
	case isa.SLT:
		m.set(in.Dst, boolToInt(m.regs[in.Src1] < m.regs[in.Src2]))
	case isa.ADDI:
		m.set(in.Dst, m.regs[in.Src1]+in.Imm)
	case isa.ANDI:
		m.set(in.Dst, m.regs[in.Src1]&in.Imm)
	case isa.ORI:
		m.set(in.Dst, m.regs[in.Src1]|in.Imm)
	case isa.XORI:
		m.set(in.Dst, m.regs[in.Src1]^in.Imm)
	case isa.SLLI:
		m.set(in.Dst, m.regs[in.Src1]<<(uint64(in.Imm)&63))
	case isa.SRLI:
		m.set(in.Dst, int64(uint64(m.regs[in.Src1])>>(uint64(in.Imm)&63)))
	case isa.SLTI:
		m.set(in.Dst, boolToInt(m.regs[in.Src1] < in.Imm))
	case isa.LUI:
		m.set(in.Dst, in.Imm<<16)
	case isa.MUL:
		m.set(in.Dst, m.regs[in.Src1]*m.regs[in.Src2])
	case isa.DIV:
		d := m.regs[in.Src2]
		if d == 0 {
			m.set(in.Dst, -1)
		} else {
			m.set(in.Dst, m.regs[in.Src1]/d)
		}
	case isa.FADD:
		// FP classes reuse integer arithmetic; only latency differs.
		m.set(in.Dst, m.regs[in.Src1]+m.regs[in.Src2])
	case isa.FMUL:
		m.set(in.Dst, m.regs[in.Src1]*m.regs[in.Src2])
	case isa.FDIV:
		d := m.regs[in.Src2]
		if d == 0 {
			m.set(in.Dst, -1)
		} else {
			m.set(in.Dst, m.regs[in.Src1]/d)
		}
	case isa.LD:
		addr := uint64(m.regs[in.Src1] + in.Imm)
		r.MemAddr = addr
		m.set(in.Dst, m.data[m.wordIndex(addr)])
	case isa.ST:
		addr := uint64(m.regs[in.Src1] + in.Imm)
		r.MemAddr = addr
		m.data[m.wordIndex(addr)] = m.regs[in.Src2]
	case isa.BEQ:
		r.Taken = m.regs[in.Src1] == m.regs[in.Src2]
	case isa.BNE:
		r.Taken = m.regs[in.Src1] != m.regs[in.Src2]
	case isa.BLT:
		r.Taken = m.regs[in.Src1] < m.regs[in.Src2]
	case isa.BGE:
		r.Taken = m.regs[in.Src1] >= m.regs[in.Src2]
	case isa.JMP:
		r.Taken = true
		next = int(in.Imm)
	case isa.JAL:
		r.Taken = true
		r.IsCall = true
		r.ReturnAddr = program.AddrOf(m.pc + 1)
		m.set(in.Dst, int64(m.pc+1))
		next = int(in.Imm)
	case isa.JR:
		r.Taken = true
		r.IsReturn = in.Src1 == isa.RA
		next = int(m.regs[in.Src1])
	case isa.HALT:
		m.halted = true
		m.retired++
		return true
	default:
		m.halted = true
		m.err = pgsserrors.Invalidf("cpu: pc %d: unknown opcode %v", m.pc, in.Op)
		return false
	}

	if r.Op.IsBranch() && r.Taken {
		next = int(in.Imm)
	}
	if r.Taken {
		r.TargetAddr = program.AddrOf(next)
	}
	m.pc = next
	m.retired++
	return true
}

func (m *Machine) set(r isa.Reg, v int64) {
	if r != isa.Zero {
		m.regs[r] = v
	}
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
