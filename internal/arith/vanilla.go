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

// Apply evaluates op in IEEE binary64 through EvalIEEE. Going through the
// software FPU (rather than bare Go expressions) makes the §5.2
// bit-exactness guarantee hold by construction, NaN payloads included: the
// differential oracle caught Go's math package producing a different
// quiet-NaN payload (0x7FF8…001) than the x64 indefinite QNaN the machine
// propagates.
func (Vanilla) Apply(_ Value, op Op, x, y, w Value) Value {
	a, b, c := ieeeArgs(op, x, y, w)
	return EvalIEEE(op, a, b, c).Value
}

// ieeeArgs unboxes the float64 operands op consumes; the rest read as 0.
func ieeeArgs(op Op, x, y, w Value) (a, b, c float64) {
	switch op.Arity() {
	case 3:
		c = w.(float64)
		fallthrough
	case 2:
		b = y.(float64)
	}
	return x.(float64), b, c
}

// EvalIEEE evaluates op on binary64 operands with the native machine's
// semantics — the same software FPU kernels, x64 NaN propagation included —
// and returns the rounded result with the exception flags it raises.
// Operands beyond op.Arity() are ignored. An unknown op yields the default
// quiet NaN with IE. It is the one binary64 evaluator behind Vanilla,
// bfloat16, the patch-mode postcondition check and FPSpy.
func EvalIEEE(op Op, x, y, w float64) fpu.Result {
	switch op {
	case OpAdd:
		return fpu.Add(x, y)
	case OpSub:
		return fpu.Sub(x, y)
	case OpMul:
		return fpu.Mul(x, y)
	case OpDiv:
		return fpu.Div(x, y)
	case OpSqrt:
		return fpu.Sqrt(x)
	case OpFMA:
		return fpu.FMAdd(x, y, w)
	case OpMin:
		return fpu.Min(x, y)
	case OpMax:
		return fpu.Max(x, y)
	case OpAbs:
		return fpu.Fabs(x)
	case OpNeg:
		return fpu.Fneg(x)
	case OpSin:
		return fpu.Fsin(x)
	case OpCos:
		return fpu.Fcos(x)
	case OpTan:
		return fpu.Ftan(x)
	case OpAsin:
		return fpu.Fasin(x)
	case OpAcos:
		return fpu.Facos(x)
	case OpAtan:
		return fpu.Fatan(x)
	case OpAtan2:
		return fpu.Fatan2(x, y)
	case OpExp:
		return fpu.Fexp(x)
	case OpLog:
		return fpu.Flog(x)
	case OpLog2:
		return fpu.Flog2(x)
	case OpLog10:
		return fpu.Flog10(x)
	case OpPow:
		return fpu.Fpow(x, y)
	case OpMod:
		return fpu.Fmod(x, y)
	case OpHypot:
		return fpu.Fhypot(x, y)
	case OpFloor:
		return fpu.Ffloor(x)
	case OpCeil:
		return fpu.Fceil(x)
	case OpRound:
		return fpu.Fround(x)
	case OpTrunc:
		return fpu.Ftrunc(x)
	default:
		return fpu.Result{Value: math.Float64frombits(fpu.QNaN()), Flags: fpu.FlagInvalid}
	}
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
