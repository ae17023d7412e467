package arith

import (
	"fmt"
	"math"

	"fpvm/internal/fpu"
)

// IntervalSystem implements interval arithmetic (the paper's alternative
// arithmetic family [29]): every shadow value is a closed interval
// guaranteed to contain the exact real result, maintained with outward
// rounding (math.Nextafter one ulp past each endpoint). Running a binary
// under FPVM+IntervalSystem turns it into a rigorous error-bound analysis
// of itself: the interval width at output is a certificate of accumulated
// rounding error.
//
// Comparisons use interval midpoints so the program follows the same path
// it would under IEEE doubles (documented tradeoff: a branch inside an
// interval's span picks the midpoint side, as in "decorated midpoint"
// interval implementations).
type IntervalSystem struct{}

var _ System = IntervalSystem{}

// Interval is a closed range [Lo, Hi] containing the true value.
type Interval struct {
	Lo, Hi float64
}

// Name returns "interval".
func (IntervalSystem) Name() string { return "interval" }

func iv(v Value) Interval { return v.(Interval) }

// point returns the degenerate interval [v, v].
func point(v float64) Interval { return Interval{v, v} }

// outward widens an interval by one ulp in each direction (covering the
// rounding of the endpoint computations themselves).
func outward(lo, hi float64) Interval {
	if math.IsNaN(lo) || math.IsNaN(hi) {
		return Interval{math.NaN(), math.NaN()}
	}
	return Interval{
		math.Nextafter(lo, math.Inf(-1)),
		math.Nextafter(hi, math.Inf(1)),
	}
}

// exact returns an interval without widening (for exact operations).
func exact(lo, hi float64) Interval { return Interval{lo, hi} }

func (i Interval) isNaN() bool { return math.IsNaN(i.Lo) || math.IsNaN(i.Hi) }

// mid returns the midpoint used for conversions and comparisons.
func (i Interval) mid() float64 {
	if i.isNaN() {
		return math.NaN()
	}
	if i.Lo == i.Hi {
		return i.Lo
	}
	m := i.Lo/2 + i.Hi/2
	if math.IsInf(i.Lo, 0) {
		return i.Lo
	}
	if math.IsInf(i.Hi, 0) {
		return i.Hi
	}
	return m
}

// Width returns the interval's diameter (the rounding-error certificate).
func (i Interval) Width() float64 { return i.Hi - i.Lo }

// minMax4 returns the extrema of four candidates.
func minMax4(a, b, c, d float64) (float64, float64) {
	lo, hi := a, a
	for _, v := range []float64{b, c, d} {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// Apply evaluates op on interval operands with outward rounding.
func (s IntervalSystem) Apply(_ Value, op Op, x0, x1, x2 Value) Value {
	args := [...]Value{x0, x1, x2}
	a := func(i int) Interval { return iv(args[i]) }
	for i := 0; i < op.Arity(); i++ {
		if iv(args[i]).isNaN() {
			return point(math.NaN())
		}
	}
	switch op {
	case OpAdd:
		x, y := a(0), a(1)
		return outward(x.Lo+y.Lo, x.Hi+y.Hi)
	case OpSub:
		x, y := a(0), a(1)
		return outward(x.Lo-y.Hi, x.Hi-y.Lo)
	case OpMul:
		x, y := a(0), a(1)
		lo, hi := minMax4(x.Lo*y.Lo, x.Lo*y.Hi, x.Hi*y.Lo, x.Hi*y.Hi)
		return outward(lo, hi)
	case OpDiv:
		x, y := a(0), a(1)
		if y.Lo <= 0 && y.Hi >= 0 {
			// Divisor interval spans zero: the quotient is unbounded.
			if x.Lo == 0 && x.Hi == 0 && (y.Lo != 0 || y.Hi != 0) {
				return point(0)
			}
			return exact(math.Inf(-1), math.Inf(1))
		}
		lo, hi := minMax4(x.Lo/y.Lo, x.Lo/y.Hi, x.Hi/y.Lo, x.Hi/y.Hi)
		return outward(lo, hi)
	case OpSqrt:
		x := a(0)
		if x.Hi < 0 {
			return point(math.NaN())
		}
		lo := x.Lo
		if lo < 0 {
			lo = 0
		}
		return outward(math.Sqrt(lo), math.Sqrt(x.Hi))
	case OpFMA:
		p := s.Apply(nil, OpMul, x0, x1, nil)
		return s.Apply(nil, OpAdd, p, x2, nil)
	case OpMin:
		x, y := a(0), a(1)
		return exact(math.Min(x.Lo, y.Lo), math.Min(x.Hi, y.Hi))
	case OpMax:
		x, y := a(0), a(1)
		return exact(math.Max(x.Lo, y.Lo), math.Max(x.Hi, y.Hi))
	case OpAbs:
		x := a(0)
		if x.Lo >= 0 {
			return x
		}
		if x.Hi <= 0 {
			return exact(-x.Hi, -x.Lo)
		}
		return exact(0, math.Max(-x.Lo, x.Hi))
	case OpNeg:
		x := a(0)
		return exact(-x.Hi, -x.Lo)
	case OpExp:
		x := a(0)
		return outward(math.Exp(x.Lo), math.Exp(x.Hi)) // monotone ↑
	case OpLog:
		return s.monotoneUp(a(0), math.Log, 0)
	case OpLog2:
		return s.monotoneUp(a(0), math.Log2, 0)
	case OpLog10:
		return s.monotoneUp(a(0), math.Log10, 0)
	case OpAtan:
		x := a(0)
		return outward(math.Atan(x.Lo), math.Atan(x.Hi)) // monotone ↑
	case OpSin:
		return s.trig(a(0), math.Sin)
	case OpCos:
		return s.trig(a(0), math.Cos)
	case OpTan:
		x := a(0)
		// Conservative: if the interval may cross a pole, give up.
		if x.Hi-x.Lo >= math.Pi {
			return exact(math.Inf(-1), math.Inf(1))
		}
		lo, hi := math.Tan(x.Lo), math.Tan(x.Hi)
		if lo > hi { // crossed a pole
			return exact(math.Inf(-1), math.Inf(1))
		}
		return outward(lo, hi)
	case OpAsin:
		return s.monotoneUp(clampTo(a(0), -1, 1), math.Asin, -1)
	case OpAcos:
		x := clampTo(a(0), -1, 1)
		return outward(math.Acos(x.Hi), math.Acos(x.Lo)) // monotone ↓
	case OpAtan2:
		y, x := a(0), a(1)
		c1, c2 := math.Atan2(y.Lo, x.Lo), math.Atan2(y.Lo, x.Hi)
		c3, c4 := math.Atan2(y.Hi, x.Lo), math.Atan2(y.Hi, x.Hi)
		lo, hi := minMax4(c1, c2, c3, c4)
		return outward(lo, hi)
	case OpPow:
		y := a(1)
		if x := a(0); y.Lo == y.Hi {
			// IEEE special cases the log/exp route cannot represent:
			// pow(x, 0) = 1 for every x, and integer exponents of bases
			// that may be zero or negative (log would yield NaN).
			if y.Lo == 0 {
				return point(1)
			}
			if x.Lo == x.Hi && y.Lo == math.Trunc(y.Lo) {
				return outward(math.Pow(x.Lo, y.Lo), math.Pow(x.Lo, y.Lo))
			}
		}
		lx := s.Apply(nil, OpLog, x0, nil, nil)
		prod := s.Apply(nil, OpMul, lx, Value(y), nil)
		return s.Apply(nil, OpExp, prod, nil, nil)
	case OpMod:
		// Width-preserving only for point intervals; otherwise conservative.
		x, y := a(0), a(1)
		if x.Lo == x.Hi && y.Lo == y.Hi {
			return point(math.Mod(x.Lo, y.Lo))
		}
		m := math.Max(math.Abs(y.Lo), math.Abs(y.Hi))
		return exact(-m, m)
	case OpHypot:
		x, y := a(0), a(1)
		ax, ay := iv(s.Apply(nil, OpAbs, x, nil, nil)), iv(s.Apply(nil, OpAbs, y, nil, nil))
		return outward(math.Hypot(ax.Lo, ay.Lo), math.Hypot(ax.Hi, ay.Hi))
	case OpFloor:
		x := a(0)
		return exact(math.Floor(x.Lo), math.Floor(x.Hi))
	case OpCeil:
		x := a(0)
		return exact(math.Ceil(x.Lo), math.Ceil(x.Hi))
	case OpRound:
		x := a(0)
		return exact(math.Round(x.Lo), math.Round(x.Hi))
	case OpTrunc:
		x := a(0)
		return exact(math.Trunc(x.Lo), math.Trunc(x.Hi))
	default:
		panic("interval: bad op " + op.String())
	}
}

// monotoneUp applies a monotone-increasing function with domain clamping.
func (s IntervalSystem) monotoneUp(x Interval, fn func(float64) float64, domLo float64) Interval {
	if x.Hi < domLo {
		return point(math.NaN())
	}
	lo := x.Lo
	if lo < domLo {
		lo = domLo
	}
	return outward(fn(lo), fn(x.Hi))
}

// trig evaluates sin/cos conservatively: if the interval spans a critical
// point the result covers [-1, 1]; otherwise endpoint evaluation suffices
// for intervals narrower than half a period.
func (s IntervalSystem) trig(x Interval, fn func(float64) float64) Interval {
	if x.Hi-x.Lo >= math.Pi {
		return exact(-1, 1)
	}
	a, b := fn(x.Lo), fn(x.Hi)
	mid := fn((x.Lo + x.Hi) / 2)
	lo := math.Min(math.Min(a, b), mid)
	hi := math.Max(math.Max(a, b), mid)
	// A critical point may hide inside: widen by the chord-sagitta bound.
	w := x.Hi - x.Lo
	slack := w * w / 8 // |f''| <= 1 for sin/cos
	r := outward(lo-slack, hi+slack)
	if r.Lo < -1 {
		r.Lo = -1
	}
	if r.Hi > 1 {
		r.Hi = 1
	}
	return r
}

func clampTo(x Interval, lo, hi float64) Interval {
	if x.Lo < lo {
		x.Lo = lo
	}
	if x.Hi > hi {
		x.Hi = hi
	}
	return x
}

// FromFloat64 promotes to a degenerate (exact) interval.
func (IntervalSystem) FromFloat64(_ Value, v float64) Value { return point(v) }

// ToFloat64 demotes to the interval midpoint.
func (IntervalSystem) ToFloat64(v Value) float64 { return iv(v).mid() }

// FromInt64 promotes an integer (exact for |i| < 2^53).
func (IntervalSystem) FromInt64(_ Value, i int64) Value {
	f := float64(i)
	if int64(f) == i {
		return point(f)
	}
	return outward(f, f)
}

// ToInt64 converts the midpoint with the given rounding control.
func (IntervalSystem) ToInt64(v Value, rc fpu.RoundingControl) (int64, bool) {
	r := fpu.Cvtsd2si(iv(v).mid(), rc)
	return r.Value, r.Flags&fpu.FlagInvalid == 0
}

// Compare orders midpoints (documented branch semantics).
func (IntervalSystem) Compare(a, b Value) (int, bool) {
	x, y := iv(a).mid(), iv(b).mid()
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

// IsNaN reports whether either endpoint is NaN.
func (IntervalSystem) IsNaN(v Value) bool { return iv(v).isNaN() }

// Format renders the interval as [lo, hi] with its width.
func (IntervalSystem) Format(v Value) string {
	i := iv(v)
	if i.Lo == i.Hi {
		return fmt.Sprintf("%g", i.Lo)
	}
	return fmt.Sprintf("[%g, %g] (±%.3g)", i.Lo, i.Hi, i.Width()/2)
}

// OpCycles estimates roughly 2–4× double cost (two endpoints + rounding).
func (IntervalSystem) OpCycles(op Op) uint64 {
	v := Vanilla{}
	return 3 * v.OpCycles(op)
}
