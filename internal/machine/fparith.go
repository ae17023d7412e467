package machine

import (
	"math"

	"fpvm/internal/fpu"
	"fpvm/internal/isa"
)

// fpLaneResult holds one lane's computed result during FP execution.
type fpLaneResult struct {
	bits  uint64
	valid bool // whether this lane writes back (compares don't)
}

// execFPArith executes a floating point arithmetic instruction with precise
// fault semantics: all lanes are computed, flags accumulated, and if any
// event is unmasked in MXCSR the instruction does NOT retire — no result or
// RFLAGS write happens — and the FP trap handler (FPVM) is invoked instead.
func (m *Machine) execFPArith(in isa.Inst) error {
	var flags fpu.Flags
	var lanes [2]fpLaneResult
	var cmp fpu.CompareResult
	isCmp := false
	var intResult int64
	intDst := -1 // operand index of an integer destination (cvtsd2si)

	laneCount := 1
	if in.Op.IsPacked() {
		laneCount = 2
	}

	for lane := 0; lane < laneCount; lane++ {
		switch in.Op {
		case isa.OpAddsd, isa.OpSubsd, isa.OpMulsd, isa.OpDivsd, isa.OpMinsd,
			isa.OpMaxsd, isa.OpAddpd, isa.OpSubpd, isa.OpMulpd, isa.OpDivpd,
			isa.OpFmod, isa.OpFatan2, isa.OpFpow, isa.OpFhypot:
			// Binary: dst = dst op src, or ternary dst = f(a, b).
			var aop, bop isa.Operand
			if len(in.Ops) == 3 {
				aop, bop = in.Ops[1], in.Ops[2]
			} else {
				aop, bop = in.Ops[0], in.Ops[1]
			}
			abits, err := m.readFPBits(aop, lane)
			if err != nil {
				return err
			}
			bbits, err := m.readFPBits(bop, lane)
			if err != nil {
				return err
			}
			r := fpBinary(in.Op, math.Float64frombits(abits), math.Float64frombits(bbits))
			flags |= r.Flags
			lanes[lane] = fpLaneResult{math.Float64bits(r.Value), true}

		case isa.OpSqrtsd, isa.OpSqrtpd, isa.OpFabs, isa.OpFneg, isa.OpFsin,
			isa.OpFcos, isa.OpFtan, isa.OpFasin, isa.OpFacos, isa.OpFatan,
			isa.OpFexp, isa.OpFlog, isa.OpFlog2, isa.OpFlog10, isa.OpFfloor,
			isa.OpFceil, isa.OpFround, isa.OpFtrunc:
			bits, err := m.readFPBits(in.Ops[1], lane)
			if err != nil {
				return err
			}
			r := fpUnary(in.Op, math.Float64frombits(bits))
			flags |= r.Flags
			lanes[lane] = fpLaneResult{math.Float64bits(r.Value), true}

		case isa.OpFmaddsd:
			// dst = src1*src2 + dst
			abits, err := m.readFPBits(in.Ops[1], lane)
			if err != nil {
				return err
			}
			bbits, err := m.readFPBits(in.Ops[2], lane)
			if err != nil {
				return err
			}
			cbits, err := m.readFPBits(in.Ops[0], lane)
			if err != nil {
				return err
			}
			r := fpu.FMAdd(math.Float64frombits(abits), math.Float64frombits(bbits), math.Float64frombits(cbits))
			flags |= r.Flags
			lanes[lane] = fpLaneResult{math.Float64bits(r.Value), true}

		case isa.OpUcomisd, isa.OpComisd:
			abits, err := m.readFPBits(in.Ops[0], lane)
			if err != nil {
				return err
			}
			bbits, err := m.readFPBits(in.Ops[1], lane)
			if err != nil {
				return err
			}
			if in.Op == isa.OpUcomisd {
				cmp = fpu.Ucomisd(math.Float64frombits(abits), math.Float64frombits(bbits))
			} else {
				cmp = fpu.Comisd(math.Float64frombits(abits), math.Float64frombits(bbits))
			}
			flags |= cmp.Flags
			isCmp = true

		case isa.OpCvtsi2sd:
			v, err := m.readInt(in.Ops[1])
			if err != nil {
				return err
			}
			r := fpu.Cvtsi2sd(v)
			flags |= r.Flags
			lanes[lane] = fpLaneResult{math.Float64bits(r.Value), true}

		case isa.OpCvtsd2si, isa.OpCvttsd2si:
			bits, err := m.readFPBits(in.Ops[1], 0)
			if err != nil {
				return err
			}
			var r fpu.IntResult
			if in.Op == isa.OpCvttsd2si {
				r = fpu.Cvttsd2si(math.Float64frombits(bits))
			} else {
				r = fpu.Cvtsd2si(math.Float64frombits(bits), m.MXCSR.RC())
			}
			flags |= r.Flags
			intResult = r.Value
			intDst = 0

		default:
			return m.fault("unhandled FP op %v", in.Op)
		}
	}

	// Flags become sticky in MXCSR whether or not we trap (the paper's
	// handler reads them to learn the trap cause, then clears them).
	unmasked := m.MXCSR.Unmasked(flags)
	m.MXCSR.SetFlags(flags)
	if unmasked != 0 {
		m.Stats.FPTraps++
		m.Stats.TrapByFlag[unmasked]++
		if m.FPTrap == nil {
			return m.fault("unhandled FP exception %v at %v", unmasked, in)
		}
		n, err := m.deliverTrap(m.FPTrap, m.Delivery, CauseFPException, in, unmasked, 0)
		if err != nil {
			return err
		}
		// Multi-retire: a sequence-emulating handler may have retired a run
		// of instructions beyond the faulting one (n of them), all inside the
		// single delivery charged above.
		m.Stats.Instructions += 1 + uint64(n)
		m.Stats.CoalescedFP += uint64(n)
		return nil
	}

	// Retire: write results.
	switch {
	case isCmp:
		m.Flags.ZF, m.Flags.PF, m.Flags.CF = cmp.ZF, cmp.PF, cmp.CF
		m.Flags.OF, m.Flags.SF = false, false
	case intDst >= 0:
		if err := m.writeInt(in.Ops[intDst], intResult); err != nil {
			return err
		}
	default:
		for lane := 0; lane < laneCount; lane++ {
			if lanes[lane].valid {
				if err := m.writeFPBits(in.Ops[0], lane, lanes[lane].bits); err != nil {
					return err
				}
			}
		}
	}
	m.advance(in)
	m.Stats.Instructions++
	m.Stats.FPInstructions++
	return nil
}

// fpBinary dispatches two-input FP operations to the FPU.
func fpBinary(op isa.Op, a, b float64) fpu.Result {
	switch op {
	case isa.OpAddsd, isa.OpAddpd:
		return fpu.Add(a, b)
	case isa.OpSubsd, isa.OpSubpd:
		return fpu.Sub(a, b)
	case isa.OpMulsd, isa.OpMulpd:
		return fpu.Mul(a, b)
	case isa.OpDivsd, isa.OpDivpd:
		return fpu.Div(a, b)
	case isa.OpMinsd:
		return fpu.Min(a, b)
	case isa.OpMaxsd:
		return fpu.Max(a, b)
	case isa.OpFmod:
		return fpu.Fmod(a, b)
	case isa.OpFatan2:
		return fpu.Fatan2(a, b)
	case isa.OpFpow:
		return fpu.Fpow(a, b)
	case isa.OpFhypot:
		return fpu.Fhypot(a, b)
	default:
		panic("fpBinary: bad op " + op.String())
	}
}

// fpUnary dispatches one-input FP operations to the FPU.
func fpUnary(op isa.Op, v float64) fpu.Result {
	switch op {
	case isa.OpSqrtsd, isa.OpSqrtpd:
		return fpu.Sqrt(v)
	case isa.OpFabs:
		return fpu.Fabs(v)
	case isa.OpFneg:
		return fpu.Fneg(v)
	case isa.OpFsin:
		return fpu.Fsin(v)
	case isa.OpFcos:
		return fpu.Fcos(v)
	case isa.OpFtan:
		return fpu.Ftan(v)
	case isa.OpFasin:
		return fpu.Fasin(v)
	case isa.OpFacos:
		return fpu.Facos(v)
	case isa.OpFatan:
		return fpu.Fatan(v)
	case isa.OpFexp:
		return fpu.Fexp(v)
	case isa.OpFlog:
		return fpu.Flog(v)
	case isa.OpFlog2:
		return fpu.Flog2(v)
	case isa.OpFlog10:
		return fpu.Flog10(v)
	case isa.OpFfloor:
		return fpu.Ffloor(v)
	case isa.OpFceil:
		return fpu.Fceil(v)
	case isa.OpFround:
		return fpu.Fround(v)
	case isa.OpFtrunc:
		return fpu.Ftrunc(v)
	default:
		panic("fpUnary: bad op " + op.String())
	}
}
