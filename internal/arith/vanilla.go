package arith

import (
	"math"
	"strconv"

	"fpvm/internal/fpu"
)

// Vanilla is the validation arithmetic system of §4.3: it re-implements
// IEEE binary64 semantics using the host's float64. Running a program under
// FPVM with Vanilla plugged in must produce bit-identical results to native
// execution — the §5.2 validation experiment.
type Vanilla struct{}

var _ System = Vanilla{}

// Name returns "vanilla".
func (Vanilla) Name() string { return "vanilla" }

// Apply evaluates op in IEEE binary64 by dispatching to the same software
// FPU kernels the native machine executes. Going through fpu (rather than
// bare Go expressions) makes the §5.2 bit-exactness guarantee hold by
// construction, NaN payloads included: the differential oracle caught Go's
// math package producing a different quiet-NaN payload (0x7FF8…001) than
// the x64 indefinite QNaN the machine propagates.
func (Vanilla) Apply(_ Value, op Op, x, y, w Value) Value {
	args := [...]Value{x, y, w}
	a := func(i int) float64 { return args[i].(float64) }
	var r fpu.Result
	switch op {
	case OpAdd:
		r = fpu.Add(a(0), a(1))
	case OpSub:
		r = fpu.Sub(a(0), a(1))
	case OpMul:
		r = fpu.Mul(a(0), a(1))
	case OpDiv:
		r = fpu.Div(a(0), a(1))
	case OpSqrt:
		r = fpu.Sqrt(a(0))
	case OpFMA:
		r = fpu.FMAdd(a(0), a(1), a(2))
	case OpMin:
		r = fpu.Min(a(0), a(1))
	case OpMax:
		r = fpu.Max(a(0), a(1))
	case OpAbs:
		r = fpu.Fabs(a(0))
	case OpNeg:
		r = fpu.Fneg(a(0))
	case OpSin:
		r = fpu.Fsin(a(0))
	case OpCos:
		r = fpu.Fcos(a(0))
	case OpTan:
		r = fpu.Ftan(a(0))
	case OpAsin:
		r = fpu.Fasin(a(0))
	case OpAcos:
		r = fpu.Facos(a(0))
	case OpAtan:
		r = fpu.Fatan(a(0))
	case OpAtan2:
		r = fpu.Fatan2(a(0), a(1))
	case OpExp:
		r = fpu.Fexp(a(0))
	case OpLog:
		r = fpu.Flog(a(0))
	case OpLog2:
		r = fpu.Flog2(a(0))
	case OpLog10:
		r = fpu.Flog10(a(0))
	case OpPow:
		r = fpu.Fpow(a(0), a(1))
	case OpMod:
		r = fpu.Fmod(a(0), a(1))
	case OpHypot:
		r = fpu.Fhypot(a(0), a(1))
	case OpFloor:
		r = fpu.Ffloor(a(0))
	case OpCeil:
		r = fpu.Fceil(a(0))
	case OpRound:
		r = fpu.Fround(a(0))
	case OpTrunc:
		r = fpu.Ftrunc(a(0))
	default:
		panic("vanilla: bad op " + op.String())
	}
	return r.Value
}

// FromFloat64 promotes an IEEE double (identity for Vanilla).
func (Vanilla) FromFloat64(_ Value, v float64) Value { return v }

// ToFloat64 demotes to an IEEE double (identity for Vanilla).
func (Vanilla) ToFloat64(v Value) float64 { return v.(float64) }

// FromInt64 converts an integer.
func (Vanilla) FromInt64(_ Value, i int64) Value { return float64(i) }

// ToInt64 converts to an integer with x64 cvtsd2si semantics.
func (Vanilla) ToInt64(v Value, rc fpu.RoundingControl) (int64, bool) {
	r := fpu.Cvtsd2si(v.(float64), rc)
	return r.Value, r.Flags&fpu.FlagInvalid == 0
}

// Compare orders two doubles; NaNs are unordered.
func (Vanilla) Compare(a, b Value) (int, bool) {
	x, y := a.(float64), b.(float64)
	if math.IsNaN(x) || math.IsNaN(y) {
		return 0, true
	}
	switch {
	case x < y:
		return -1, false
	case x > y:
		return 1, false
	default:
		return 0, false
	}
}

// IsNaN reports whether v is a NaN.
func (Vanilla) IsNaN(v Value) bool { return math.IsNaN(v.(float64)) }

// Format renders the value like printf %g.
func (Vanilla) Format(v Value) string {
	return strconv.FormatFloat(v.(float64), 'g', -1, 64)
}

// OpCycles reports the (small) cost of host-double emulation.
func (Vanilla) OpCycles(op Op) uint64 {
	switch op {
	case OpDiv, OpSqrt, OpMod:
		return 30
	case OpSin, OpCos, OpTan, OpAsin, OpAcos, OpAtan, OpAtan2,
		OpExp, OpLog, OpLog2, OpLog10, OpPow, OpHypot:
		return 130
	default:
		return 12
	}
}
