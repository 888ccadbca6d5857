package cpu

import (
	"errors"
	"fmt"
)

// SWIHandler services software interrupts (the firmware's hypercalls to the
// platform: mailbox reads, flash command issue, DMA programming...). It
// receives the SWI number and r0-r3, and returns the new r0 plus extra
// cycles to charge (modelling the hardware side of the service). Returning
// halt=true stops execution (firmware exit).
type SWIHandler func(num uint32, r0, r1, r2, r3 uint32) (ret uint32, extraCycles int64, halt bool)

// Machine is the ARMv4-subset interpreter with ARM7TDMI-style cycle
// accounting (the paper's pipeline-, pinout- and cycle-accurate CPU model,
// reduced to instruction-level cycle fidelity).
type Machine struct {
	R          [16]uint32
	N, Z, C, V bool

	mem []byte
	swi SWIHandler

	Cycles int64 // accumulated execution cycles
	Steps  int64 // instructions retired

	halted bool
}

// Errors surfaced by the interpreter.
var (
	ErrMemFault   = errors.New("cpu: memory access outside SRAM")
	ErrInvalidOp  = errors.New("cpu: invalid or unsupported instruction")
	ErrNoSWI      = errors.New("cpu: SWI executed without a handler")
	ErrCycleLimit = errors.New("cpu: cycle budget exhausted")
)

// NewMachine builds a core with sramBytes of zeroed memory.
func NewMachine(sramBytes int) *Machine {
	if sramBytes < 64 {
		sramBytes = 64
	}
	return &Machine{mem: make([]byte, sramBytes)}
}

// SetSWIHandler installs the platform service handler.
func (m *Machine) SetSWIHandler(h SWIHandler) { m.swi = h }

// LoadWords copies a firmware image (little-endian words) at addr.
func (m *Machine) LoadWords(addr uint32, words []uint32) error {
	if int(addr)+4*len(words) > len(m.mem) {
		return ErrMemFault
	}
	for i, w := range words {
		m.putWord(addr+uint32(4*i), w)
	}
	return nil
}

func (m *Machine) putWord(addr, w uint32) {
	m.mem[addr] = byte(w)
	m.mem[addr+1] = byte(w >> 8)
	m.mem[addr+2] = byte(w >> 16)
	m.mem[addr+3] = byte(w >> 24)
}

func (m *Machine) word(addr uint32) uint32 {
	return uint32(m.mem[addr]) | uint32(m.mem[addr+1])<<8 |
		uint32(m.mem[addr+2])<<16 | uint32(m.mem[addr+3])<<24
}

// condPassed evaluates a condition code against the flags.
func (m *Machine) condPassed(cond uint32) bool {
	switch cond {
	case CondEQ:
		return m.Z
	case CondNE:
		return !m.Z
	case CondCS:
		return m.C
	case CondCC:
		return !m.C
	case CondMI:
		return m.N
	case CondPL:
		return !m.N
	case CondVS:
		return m.V
	case CondVC:
		return !m.V
	case CondHI:
		return m.C && !m.Z
	case CondLS:
		return !m.C || m.Z
	case CondGE:
		return m.N == m.V
	case CondLT:
		return m.N != m.V
	case CondGT:
		return !m.Z && m.N == m.V
	case CondLE:
		return m.Z || m.N != m.V
	default: // AL and the unused NV slot
		return true
	}
}

// shiftOperand applies an immediate-amount shift, returning value and the
// shifter carry-out.
func (m *Machine) shiftOperand(d decoded) (uint32, bool) {
	v := m.R[d.rm]
	if d.rm == RegPC {
		v += 8 // pipeline-visible PC
	}
	amt := d.shImm
	carry := m.C
	switch d.shTyp {
	case ShiftLSL:
		if amt == 0 {
			return v, carry
		}
		carry = v&(1<<(32-amt)) != 0
		return v << amt, carry
	case ShiftLSR:
		if amt == 0 { // encodes LSR #32
			return 0, v&(1<<31) != 0
		}
		carry = v&(1<<(amt-1)) != 0
		return v >> amt, carry
	case ShiftASR:
		if amt == 0 { // encodes ASR #32
			if v&(1<<31) != 0 {
				return 0xFFFFFFFF, true
			}
			return 0, false
		}
		carry = v&(1<<(amt-1)) != 0
		return uint32(int32(v) >> amt), carry
	default: // ROR
		if amt == 0 { // RRX not supported in the subset; treated as ROR #0
			return v, carry
		}
		carry = v&(1<<(amt-1)) != 0
		return ror(v, amt), carry
	}
}

// addWithFlags computes a+b+carryIn and the NZCV flags of the operation.
func addWithFlags(a, b uint32, carryIn bool) (res uint32, c, v bool) {
	ci := uint64(0)
	if carryIn {
		ci = 1
	}
	full := uint64(a) + uint64(b) + ci
	res = uint32(full)
	c = full>>32 != 0
	v = (a>>31 == b>>31) && (res>>31 != a>>31)
	return
}

// Step executes one instruction, returning its cycle cost.
func (m *Machine) Step() (int64, error) {
	if m.halted {
		return 0, nil
	}
	pc := m.R[RegPC]
	if int(pc)+4 > len(m.mem) || pc%4 != 0 {
		return 0, fmt.Errorf("%w: pc=%#x", ErrMemFault, pc)
	}
	d := decode(m.word(pc))
	m.Steps++
	if !m.condPassed(d.cond) {
		m.R[RegPC] = pc + 4
		m.Cycles++
		return 1, nil
	}

	var cost int64
	switch d.class {
	case classDataProc:
		cost = m.execDataProc(d, pc)
	case classMultiply:
		cost = m.execMultiply(d, pc)
	case classMemory:
		c, err := m.execMemory(d, pc)
		if err != nil {
			return 0, err
		}
		cost = c
	case classBlockMem:
		c, err := m.execBlockMem(d, pc)
		if err != nil {
			return 0, err
		}
		cost = c
	case classBranch:
		if d.setS { // link
			m.R[RegLR] = pc + 4
		}
		m.R[RegPC] = uint32(int64(pc) + 8 + int64(d.offset24)*4)
		cost = 3
	case classBranchEx:
		m.R[RegPC] = m.R[d.rm] &^ 1
		cost = 3
	case classSWI:
		if m.swi == nil {
			return 0, ErrNoSWI
		}
		ret, extra, halt := m.swi(d.swiNum, m.R[0], m.R[1], m.R[2], m.R[3])
		m.R[0] = ret
		m.R[RegPC] = pc + 4
		cost = 3 + extra
		if halt {
			m.halted = true
		}
	default:
		return 0, fmt.Errorf("%w: %#08x at pc=%#x", ErrInvalidOp, m.word(pc), pc)
	}
	m.Cycles += cost
	return cost, nil
}

func (m *Machine) execDataProc(d decoded, pc uint32) int64 {
	var op2 uint32
	shCarry := m.C
	if d.useImm {
		op2 = d.imm
	} else {
		op2, shCarry = m.shiftOperand(d)
	}
	rnVal := m.R[d.rn]
	if d.rn == RegPC {
		rnVal = pc + 8
	}
	var res uint32
	c, v := m.C, m.V
	logical := false
	switch d.opcode {
	case OpAND, OpTST:
		res, logical = rnVal&op2, true
	case OpEOR, OpTEQ:
		res, logical = rnVal^op2, true
	case OpSUB, OpCMP:
		res, c, v = addWithFlags(rnVal, ^op2, true)
	case OpRSB:
		res, c, v = addWithFlags(op2, ^rnVal, true)
	case OpADD, OpCMN:
		res, c, v = addWithFlags(rnVal, op2, false)
	case OpADC:
		res, c, v = addWithFlags(rnVal, op2, m.C)
	case OpSBC:
		res, c, v = addWithFlags(rnVal, ^op2, m.C)
	case OpRSC:
		res, c, v = addWithFlags(op2, ^rnVal, m.C)
	case OpORR:
		res, logical = rnVal|op2, true
	case OpMOV:
		res, logical = op2, true
	case OpBIC:
		res, logical = rnVal&^op2, true
	case OpMVN:
		res, logical = ^op2, true
	}
	testOnly := d.opcode >= OpTST && d.opcode <= OpCMN
	if !testOnly {
		m.R[d.rd] = res
	}
	if d.setS || testOnly {
		m.N = res>>31 != 0
		m.Z = res == 0
		if logical {
			m.C = shCarry
		} else {
			m.C, m.V = c, v
		}
	}
	if !testOnly && d.rd == RegPC {
		return 3 // PC written by the result: pipeline refill
	}
	m.R[RegPC] = pc + 4
	return 1
}

func (m *Machine) execMultiply(d decoded, pc uint32) int64 {
	res := m.R[d.rm] * m.R[d.rs]
	if d.accumulate {
		res += m.R[d.rn]
	}
	m.R[d.rd] = res
	if d.setS {
		m.N = res>>31 != 0
		m.Z = res == 0
	}
	m.R[RegPC] = pc + 4
	return 4 // ARM7 MUL is 2-5 cycles depending on operand; use midpoint
}

func (m *Machine) execMemory(d decoded, pc uint32) (int64, error) {
	var off uint32
	if d.useImm {
		off = d.imm
	} else {
		off, _ = m.shiftOperand(d)
	}
	base := m.R[d.rn]
	if d.rn == RegPC {
		base = pc + 8
	}
	addr := base
	if d.pre {
		if d.up {
			addr += off
		} else {
			addr -= off
		}
	}
	size := uint32(4)
	if d.byteOp {
		size = 1
	}
	if int(addr)+int(size) > len(m.mem) || (!d.byteOp && addr%4 != 0) {
		return 0, fmt.Errorf("%w: addr=%#x at pc=%#x", ErrMemFault, addr, pc)
	}
	if d.load {
		if d.byteOp {
			m.R[d.rd] = uint32(m.mem[addr])
		} else {
			m.R[d.rd] = m.word(addr)
		}
	} else {
		val := m.R[d.rd]
		if d.rd == RegPC {
			val = pc + 12
		}
		if d.byteOp {
			m.mem[addr] = byte(val)
		} else {
			m.putWord(addr, val)
		}
	}
	// Base writeback (post-index always writes back).
	if !d.pre {
		if d.up {
			m.R[d.rn] = base + off
		} else {
			m.R[d.rn] = base - off
		}
	} else if d.writeback {
		m.R[d.rn] = addr
	}
	cost := int64(2) // STR: 2N
	if d.load {
		cost = 3 // LDR: 1S+1N+1I
		if d.rd == RegPC {
			cost = 5
			return cost, nil // PC loaded; no increment
		}
	}
	m.R[RegPC] = pc + 4
	return cost, nil
}

func (m *Machine) execBlockMem(d decoded, pc uint32) (int64, error) {
	// Count registers.
	n := 0
	for i := 0; i < 16; i++ {
		if d.regList&(1<<uint(i)) != 0 {
			n++
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("%w: empty register list at pc=%#x", ErrInvalidOp, pc)
	}
	base := m.R[d.rn]
	var start uint32
	if d.up {
		start = base
		if d.pre {
			start += 4
		}
	} else {
		start = base - uint32(4*n)
		if !d.pre {
			start += 4
		}
	}
	if int(start)+4*n > len(m.mem) || start%4 != 0 {
		return 0, fmt.Errorf("%w: block at %#x", ErrMemFault, start)
	}
	addr := start
	pcLoaded := false
	for i := 0; i < 16; i++ {
		if d.regList&(1<<uint(i)) == 0 {
			continue
		}
		if d.load {
			m.R[i] = m.word(addr)
			if i == RegPC {
				pcLoaded = true
			}
		} else {
			v := m.R[i]
			if i == RegPC {
				v = pc + 12
			}
			m.putWord(addr, v)
		}
		addr += 4
	}
	if d.writeback {
		if d.up {
			m.R[d.rn] = base + uint32(4*n)
		} else {
			m.R[d.rn] = base - uint32(4*n)
		}
	}
	cost := int64(n + 1)
	if d.load {
		cost = int64(n + 2)
		if pcLoaded {
			cost += 2
			return cost, nil
		}
	}
	m.R[RegPC] = pc + 4
	return cost, nil
}

// Run executes from the current PC until halt (SWI handler request) or the
// cycle budget is exhausted. It returns the cycles consumed.
func (m *Machine) Run(maxCycles int64) (int64, error) {
	startCycles := m.Cycles
	m.halted = false
	for !m.halted {
		if m.Cycles-startCycles >= maxCycles {
			return m.Cycles - startCycles, ErrCycleLimit
		}
		if _, err := m.Step(); err != nil {
			return m.Cycles - startCycles, err
		}
	}
	return m.Cycles - startCycles, nil
}
