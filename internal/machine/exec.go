package machine

import (
	"fmt"
	"math"
	"strconv"

	"fpvm/internal/fpu"
	"fpvm/internal/isa"
)

// effAddr computes the effective address of a memory operand. The shared
// isa.EffAddr is the single definition of addressing; FPVM's binder uses the
// same helper.
func (m *Machine) effAddr(o isa.Operand) uint64 {
	return isa.EffAddr(&m.R, o)
}

// readInt reads an integer operand (register, immediate, or memory).
func (m *Machine) readInt(o isa.Operand) (int64, error) {
	switch o.Kind {
	case isa.KindIntReg:
		return m.R[o.Reg], nil
	case isa.KindImm:
		return o.Imm, nil
	case isa.KindMem:
		v, err := m.ReadU64(m.effAddr(o))
		return int64(v), err
	default:
		return 0, m.fault("integer read from %v operand", o.Kind)
	}
}

// writeInt writes an integer result to a register or memory operand.
func (m *Machine) writeInt(o isa.Operand, v int64) error {
	switch o.Kind {
	case isa.KindIntReg:
		m.R[o.Reg] = v
		return nil
	case isa.KindMem:
		return m.WriteU64(m.effAddr(o), uint64(v))
	default:
		return m.fault("integer write to %v operand", o.Kind)
	}
}

// readFPBits reads lane `lane` of an FP operand: FP register lane, or the
// 8-byte word at addr+8*lane for memory.
func (m *Machine) readFPBits(o isa.Operand, lane int) (uint64, error) {
	switch o.Kind {
	case isa.KindFPReg:
		return m.F[o.Reg][lane], nil
	case isa.KindMem:
		return m.ReadU64(m.effAddr(o) + uint64(8*lane))
	default:
		return 0, m.fault("FP read from %v operand", o.Kind)
	}
}

// writeFPBits writes lane `lane` of an FP destination.
func (m *Machine) writeFPBits(o isa.Operand, lane int, bits uint64) error {
	switch o.Kind {
	case isa.KindFPReg:
		m.F[o.Reg][lane] = bits
		return nil
	case isa.KindMem:
		return m.WriteU64(m.effAddr(o)+uint64(8*lane), bits)
	default:
		return m.fault("FP write to %v operand", o.Kind)
	}
}

func (m *Machine) advance(in isa.Inst) { m.RIP = in.Addr + uint64(in.Len) }

// exec executes (or traps) one decoded instruction; slot is the per-index
// side-table entry of in.
func (m *Machine) exec(in isa.Inst, slot *instSlot) error {
	// Correctness-trap sites installed by the static patcher fire before
	// the instruction executes; the handler demotes NaN-boxes and the
	// original instruction is then re-executed natively (§4.2).
	if slot.hasSite && m.CorrectnessTrap != nil {
		m.Stats.CorrectTraps++
		if _, err := m.deliverTrap(m.CorrectnessTrap, m.CorrectnessDelivery, CauseCorrectness, in, 0, slot.site); err != nil {
			return err
		}
	}

	// §6.2 hardware extension: trap when an integer instruction is about
	// to load a NaN bit pattern (the cheap hardware check that replaces
	// static analysis). The handler demotes in place; execution then
	// proceeds, so genuine quiet-NaN data does not loop.
	if m.TrapOnNaNLoad && m.CorrectnessTrap != nil && !in.Op.IsFPArith() &&
		!in.Op.IsFPMove() && !in.Op.IsFPBitwise() {
		for _, o := range isa.IntReadMemOperands(in) {
			bits, err := m.ReadU64(m.effAddr(o))
			if err != nil {
				break // the execution below reports the fault
			}
			if isNaNPattern(bits) {
				m.Stats.CorrectTraps++
				if _, err := m.deliverTrap(m.CorrectnessTrap, m.CorrectnessDelivery, CauseCorrectness, in, 0, -2); err != nil {
					return err
				}
				break
			}
		}
	}

	m.Cycles += m.Cost.opCost(in.Op) + m.Cost.MemAccess*memOperands(in)

	op := in.Op
	switch {
	case op.IsFPArith():
		return m.execFPArith(in)
	case op.IsFPMove():
		return m.execFPMove(in)
	case op.IsFPBitwise():
		return m.execFPBitwise(in)
	case op.IsBranch():
		return m.execBranch(in)
	}

	switch op {
	case isa.OpNop:
		m.advance(in)
	case isa.OpHalt:
		m.halted = true
		m.advance(in)
	case isa.OpMov:
		v, err := m.readInt(in.Ops[1])
		if err != nil {
			return err
		}
		if err := m.writeInt(in.Ops[0], v); err != nil {
			return err
		}
		m.advance(in)
	case isa.OpLea:
		if in.Ops[1].Kind != isa.KindMem {
			return m.fault("lea needs a memory source")
		}
		if err := m.writeInt(in.Ops[0], int64(m.effAddr(in.Ops[1]))); err != nil {
			return err
		}
		m.advance(in)
	case isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpImul,
		isa.OpShl, isa.OpShr, isa.OpSar:
		a, err := m.readInt(in.Ops[0])
		if err != nil {
			return err
		}
		b, err := m.readInt(in.Ops[1])
		if err != nil {
			return err
		}
		v := m.intALU(op, a, b)
		if err := m.writeInt(in.Ops[0], v); err != nil {
			return err
		}
		m.advance(in)
	case isa.OpIdiv:
		a, err := m.readInt(in.Ops[0])
		if err != nil {
			return err
		}
		b, err := m.readInt(in.Ops[1])
		if err != nil {
			return err
		}
		if b == 0 {
			return m.fault("integer divide by zero")
		}
		if err := m.writeInt(in.Ops[0], a/b); err != nil {
			return err
		}
		m.advance(in)
	case isa.OpNeg, isa.OpNot, isa.OpInc, isa.OpDec:
		a, err := m.readInt(in.Ops[0])
		if err != nil {
			return err
		}
		var v int64
		switch op {
		case isa.OpNeg:
			v = -a
		case isa.OpNot:
			v = ^a
		case isa.OpInc:
			v = a + 1
		case isa.OpDec:
			v = a - 1
		}
		m.setIntFlags(v, false)
		if err := m.writeInt(in.Ops[0], v); err != nil {
			return err
		}
		m.advance(in)
	case isa.OpCmp:
		a, err := m.readInt(in.Ops[0])
		if err != nil {
			return err
		}
		b, err := m.readInt(in.Ops[1])
		if err != nil {
			return err
		}
		m.setCmpFlags(a, b)
		m.advance(in)
	case isa.OpTest:
		a, err := m.readInt(in.Ops[0])
		if err != nil {
			return err
		}
		b, err := m.readInt(in.Ops[1])
		if err != nil {
			return err
		}
		m.setIntFlags(a&b, false)
		m.Flags.CF, m.Flags.OF = false, false
		m.advance(in)
	case isa.OpCall:
		target, err := m.readInt(in.Ops[0])
		if err != nil {
			return err
		}
		ret := in.Addr + uint64(in.Len)
		m.R[isa.RegSP] -= 8
		if err := m.WriteU64(uint64(m.R[isa.RegSP]), ret); err != nil {
			return err
		}
		m.RIP = uint64(target)
	case isa.OpRet:
		v, err := m.ReadU64(uint64(m.R[isa.RegSP]))
		if err != nil {
			return err
		}
		m.R[isa.RegSP] += 8
		m.RIP = v
	case isa.OpPush:
		v, err := m.readInt(in.Ops[0])
		if err != nil {
			return err
		}
		m.R[isa.RegSP] -= 8
		if err := m.WriteU64(uint64(m.R[isa.RegSP]), uint64(v)); err != nil {
			return err
		}
		m.advance(in)
	case isa.OpPop:
		v, err := m.ReadU64(uint64(m.R[isa.RegSP]))
		if err != nil {
			return err
		}
		m.R[isa.RegSP] += 8
		if err := m.writeInt(in.Ops[0], int64(v)); err != nil {
			return err
		}
		m.advance(in)
	case isa.OpOutf:
		bits, err := m.readFPBits(in.Ops[0], 0)
		if err != nil {
			return err
		}
		s := ""
		if m.OutFilter != nil {
			if hs, ok := m.OutFilter(bits); ok {
				s = hs
			}
		}
		if s == "" {
			s = strconv.FormatFloat(math.Float64frombits(bits), 'g', -1, 64)
		}
		if m.Out != nil {
			fmt.Fprintln(m.Out, s)
		}
		m.advance(in)
	case isa.OpOuti:
		v, err := m.readInt(in.Ops[0])
		if err != nil {
			return err
		}
		if m.Out != nil {
			fmt.Fprintln(m.Out, v)
		}
		m.advance(in)
	case isa.OpOutc:
		v, err := m.readInt(in.Ops[0])
		if err != nil {
			return err
		}
		if m.Out != nil {
			fmt.Fprintf(m.Out, "%c", byte(v))
		}
		m.advance(in)
	case isa.OpCallext:
		if m.ExternalTrap != nil {
			m.Stats.ExtCallTraps++
			if _, err := m.deliverTrap(m.ExternalTrap, m.CorrectnessDelivery, CauseExternalCall, in, 0, in.Ops[0].Imm); err != nil {
				return err
			}
		}
		m.advance(in)
	case isa.OpTrapc:
		if m.CorrectnessTrap != nil {
			m.Stats.CorrectTraps++
			if _, err := m.deliverTrap(m.CorrectnessTrap, m.CorrectnessDelivery, CauseCorrectness, in, 0, in.Ops[0].Imm); err != nil {
				return err
			}
		}
		m.advance(in)
	case isa.OpCycles:
		if err := m.writeInt(in.Ops[0], int64(m.Cycles)); err != nil {
			return err
		}
		m.advance(in)
	default:
		return m.fault("unimplemented opcode %v", op)
	}
	m.Stats.Instructions++
	return nil
}

func (m *Machine) intALU(op isa.Op, a, b int64) int64 {
	var v int64
	switch op {
	case isa.OpAdd:
		v = a + b
		m.setCmpFlagsAdd(a, b, v)
	case isa.OpSub:
		v = a - b
		m.setCmpFlags(a, b)
	case isa.OpImul:
		v = a * b
		m.setIntFlags(v, false)
	case isa.OpAnd:
		v = a & b
		m.setIntFlags(v, true)
	case isa.OpOr:
		v = a | b
		m.setIntFlags(v, true)
	case isa.OpXor:
		v = a ^ b
		m.setIntFlags(v, true)
	case isa.OpShl:
		v = a << (uint64(b) & 63)
		m.setIntFlags(v, false)
	case isa.OpShr:
		v = int64(uint64(a) >> (uint64(b) & 63))
		m.setIntFlags(v, false)
	case isa.OpSar:
		v = a >> (uint64(b) & 63)
		m.setIntFlags(v, false)
	}
	return v
}

func (m *Machine) setIntFlags(v int64, clearCarry bool) {
	m.Flags.ZF = v == 0
	m.Flags.SF = v < 0
	if clearCarry {
		m.Flags.CF, m.Flags.OF = false, false
	}
	m.Flags.PF = false
}

// setCmpFlags sets flags for a - b (cmp/sub semantics).
func (m *Machine) setCmpFlags(a, b int64) {
	d := a - b
	m.Flags.ZF = d == 0
	m.Flags.SF = d < 0
	m.Flags.CF = uint64(a) < uint64(b)
	m.Flags.OF = (a >= 0 && b < 0 && d < 0) || (a < 0 && b >= 0 && d >= 0)
	m.Flags.PF = false
}

func (m *Machine) setCmpFlagsAdd(a, b, v int64) {
	m.Flags.ZF = v == 0
	m.Flags.SF = v < 0
	m.Flags.CF = uint64(v) < uint64(a)
	m.Flags.OF = (a >= 0) == (b >= 0) && (v >= 0) != (a >= 0)
	m.Flags.PF = false
}

func (m *Machine) execBranch(in isa.Inst) error {
	taken := false
	f := m.Flags
	switch in.Op {
	case isa.OpJmp:
		taken = true
	case isa.OpJe:
		taken = f.ZF
	case isa.OpJne:
		taken = !f.ZF
	case isa.OpJl:
		taken = f.SF != f.OF
	case isa.OpJle:
		taken = f.ZF || f.SF != f.OF
	case isa.OpJg:
		taken = !f.ZF && f.SF == f.OF
	case isa.OpJge:
		taken = f.SF == f.OF
	case isa.OpJb:
		taken = f.CF
	case isa.OpJbe:
		taken = f.CF || f.ZF
	case isa.OpJa:
		taken = !f.CF && !f.ZF
	case isa.OpJae:
		taken = !f.CF
	case isa.OpJp:
		taken = f.PF
	case isa.OpJnp:
		taken = !f.PF
	}
	if taken {
		t, err := m.readInt(in.Ops[0])
		if err != nil {
			return err
		}
		m.RIP = uint64(t)
	} else {
		m.advance(in)
	}
	m.Stats.Instructions++
	return nil
}

func (m *Machine) execFPMove(in isa.Inst) error {
	dst, src := in.Ops[0], in.Ops[1]
	switch in.Op {
	case isa.OpMovsd:
		bits, err := m.readFPBits(src, 0)
		if err != nil {
			return err
		}
		if dst.Kind == isa.KindFPReg && src.Kind == isa.KindMem {
			m.F[dst.Reg][1] = 0 // movsd from memory zeroes the upper lane
		}
		if err := m.writeFPBits(dst, 0, bits); err != nil {
			return err
		}
	case isa.OpMovapd:
		for lane := 0; lane < 2; lane++ {
			bits, err := m.readFPBits(src, lane)
			if err != nil {
				return err
			}
			if err := m.writeFPBits(dst, lane, bits); err != nil {
				return err
			}
		}
	}
	m.advance(in)
	m.Stats.Instructions++
	return nil
}

func (m *Machine) execFPBitwise(in isa.Inst) error {
	dst, src := in.Ops[0], in.Ops[1]
	if dst.Kind != isa.KindFPReg {
		return m.fault("%v needs an FP register destination", in.Op)
	}
	for lane := 0; lane < 2; lane++ {
		b, err := m.readFPBits(src, lane)
		if err != nil {
			return err
		}
		a := m.F[dst.Reg][lane]
		var v uint64
		switch in.Op {
		case isa.OpXorpd:
			v = a ^ b
		case isa.OpAndpd:
			v = a & b
		case isa.OpOrpd:
			v = a | b
		}
		m.F[dst.Reg][lane] = v
	}
	m.advance(in)
	m.Stats.Instructions++
	return nil
}

// Exported operand accessors for trap handlers (FPVM's binder reads and
// writes operands through these, like the real FPVM reads the signal
// frame's register file and the process address space).

// ReadOperandFP reads lane `lane` of an FP operand.
func (m *Machine) ReadOperandFP(o isa.Operand, lane int) (uint64, error) {
	return m.readFPBits(o, lane)
}

// WriteOperandFP writes lane `lane` of an FP operand.
func (m *Machine) WriteOperandFP(o isa.Operand, lane int, bits uint64) error {
	return m.writeFPBits(o, lane, bits)
}

// ReadOperandInt reads an integer operand.
func (m *Machine) ReadOperandInt(o isa.Operand) (int64, error) {
	return m.readInt(o)
}

// WriteOperandInt writes an integer operand.
func (m *Machine) WriteOperandInt(o isa.Operand, v int64) error {
	return m.writeInt(o, v)
}

// SetCompareFlags installs ucomisd-style flag results (used by emulators).
func (m *Machine) SetCompareFlags(zf, pf, cf bool) {
	m.Flags.ZF, m.Flags.PF, m.Flags.CF = zf, pf, cf
	m.Flags.OF, m.Flags.SF = false, false
}

// Advance moves RIP past in (used by trap handlers after emulation).
func (m *Machine) Advance(in isa.Inst) { m.advance(in) }

// ExecMasked executes one instruction natively with every MXCSR exception
// masked and no side-table dispatch: the graceful-degradation escape hatch
// (§4.1–4.2's guarantee that anything can be demoted and run as plain IEEE).
// No trap of any kind is delivered — FP events take their masked IEEE
// response, patch and correctness sites are bypassed, and the NaN-load
// extension is suppressed for the one instruction. Retirement counters are
// left untouched because the caller's trap delivery already accounts for the
// retirement; cycle costs accrue normally. Genuine machine faults (bad
// memory, bad opcode) still propagate: native execution would die the same
// way, and degradation must never mask a real crash.
func (m *Machine) ExecMasked(in isa.Inst) error {
	masks := m.MXCSR.Masks()
	nanLoad := m.TrapOnNaNLoad
	inst, fp := m.Stats.Instructions, m.Stats.FPInstructions
	m.MXCSR.SetMasks(fpu.FlagAll)
	m.TrapOnNaNLoad = false
	err := m.exec(in, &instSlot{})
	m.MXCSR.SetMasks(masks)
	m.TrapOnNaNLoad = nanLoad
	m.Stats.Instructions, m.Stats.FPInstructions = inst, fp
	return err
}

// isNaNPattern reports whether bits encode any IEEE NaN — the pattern the
// §6.2 hardware extension watches for on integer loads.
func isNaNPattern(bits uint64) bool {
	return bits&(0x7FF<<52) == 0x7FF<<52 && bits&(1<<52-1) != 0
}
