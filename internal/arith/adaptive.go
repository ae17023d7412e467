package arith

import (
	"fmt"

	"fpvm/internal/fpu"
	"fpvm/internal/mpfr"
)

// AdaptiveMPFR is the "adaptive precision version" the paper's §4.3 says
// the authors are considering: instead of one fixed precision, each shadow
// value carries its own precision, and the system escalates precision when
// it detects catastrophic cancellation — the event that actually destroys
// significance — up to a configurable ceiling.
//
// The policy: results are computed at the max of the operand precisions;
// when an add/sub result loses more than cancelThreshold bits of magnitude
// relative to its larger operand, the result's precision doubles (capped).
// This concentrates precision where the computation is ill-conditioned and
// keeps well-conditioned regions cheap.
type AdaptiveMPFR struct {
	base uint // starting precision
	max  uint // escalation ceiling
	rnd  mpfr.RoundingMode

	// Escalations counts precision-doubling events (observability).
	Escalations uint64
}

// cancelThreshold is the number of leading bits an add/sub result must lose
// before precision escalates.
const cancelThreshold = 24

var _ System = (*AdaptiveMPFR)(nil)

// NewAdaptiveMPFR returns an adaptive system starting at base bits and
// escalating up to max bits.
func NewAdaptiveMPFR(base, max uint) *AdaptiveMPFR {
	if base < 24 {
		base = 24
	}
	if max < base {
		max = base
	}
	return &AdaptiveMPFR{base: base, max: max, rnd: mpfr.RoundNearestEven}
}

// Name identifies the system and its precision window.
func (s *AdaptiveMPFR) Name() string {
	return fmt.Sprintf("adaptive-mpfr%d..%d", s.base, s.max)
}

// adaptVal is the shadow value: an mpfr float plus its working precision.
type adaptVal struct {
	f    *mpfr.Float
	prec uint
}

func (s *AdaptiveMPFR) get(v Value) *adaptVal { return v.(*adaptVal) }

func (s *AdaptiveMPFR) wrap(f *mpfr.Float, prec uint) *adaptVal {
	return &adaptVal{f: f, prec: prec}
}

// Apply evaluates op at the operands' maximum precision, escalating on
// detected cancellation. Results carry their own precision, so dst is not
// recycled.
func (s *AdaptiveMPFR) Apply(_ Value, op Op, x, y, w Value) Value {
	args := [...]Value{x, y, w}
	prec := s.base
	for _, a := range args[:op.Arity()] {
		if p := s.get(a).prec; p > prec {
			prec = p
		}
	}
	z := mpfr.New(prec)
	fa := func(i int) *mpfr.Float { return s.get(args[i]).f }

	switch op {
	case OpAdd, OpSub:
		if op == OpAdd {
			z.Add(fa(0), fa(1), s.rnd)
		} else {
			z.Sub(fa(0), fa(1), s.rnd)
		}
		// Cancellation detection: the result's binary exponent dropped far
		// below both operands'.
		if z.IsFinite() && !z.IsZero() {
			ea, eb := fa(0).BinExp(), fa(1).BinExp()
			hi := ea
			if eb > hi {
				hi = eb
			}
			if hi-z.BinExp() >= cancelThreshold && prec < s.max {
				newPrec := prec * 2
				if newPrec > s.max {
					newPrec = s.max
				}
				s.Escalations++
				// Recompute at the escalated precision.
				z = mpfr.New(newPrec)
				if op == OpAdd {
					z.Add(fa(0), fa(1), s.rnd)
				} else {
					z.Sub(fa(0), fa(1), s.rnd)
				}
				prec = newPrec
			}
		}
		return s.wrap(z, prec)
	}

	// All other operations: delegate to a fixed-precision MPFR system at
	// the inherited precision.
	inner := &MPFRSystem{prec: prec, rnd: s.rnd}
	var vals [3]Value
	for i, a := range args[:op.Arity()] {
		vals[i] = s.get(a).f
	}
	return s.wrap(inner.Apply(nil, op, vals[0], vals[1], vals[2]).(*mpfr.Float), prec)
}

// FromFloat64 promotes at the base precision.
func (s *AdaptiveMPFR) FromFloat64(_ Value, v float64) Value {
	z := mpfr.New(s.base)
	z.SetFloat64(v, s.rnd)
	return s.wrap(z, s.base)
}

// ToFloat64 demotes with correct rounding.
func (s *AdaptiveMPFR) ToFloat64(v Value) float64 {
	return s.get(v).f.Float64(mpfr.RoundNearestEven)
}

// FromInt64 promotes an integer at the base precision.
func (s *AdaptiveMPFR) FromInt64(_ Value, i int64) Value {
	z := mpfr.New(s.base)
	z.SetInt64(i, s.rnd)
	return s.wrap(z, s.base)
}

// ToInt64 converts with the given rounding control.
func (s *AdaptiveMPFR) ToInt64(v Value, rc fpu.RoundingControl) (int64, bool) {
	inner := &MPFRSystem{prec: s.get(v).prec, rnd: s.rnd}
	return inner.ToInt64(s.get(v).f, rc)
}

// Compare orders two values; NaNs are unordered.
func (s *AdaptiveMPFR) Compare(a, b Value) (int, bool) {
	x, y := s.get(a).f, s.get(b).f
	if x.IsNaN() || y.IsNaN() {
		return 0, true
	}
	return x.Cmp(y), false
}

// IsNaN reports whether v is NaN.
func (s *AdaptiveMPFR) IsNaN(v Value) bool { return s.get(v).f.IsNaN() }

// Format renders the value with its current precision annotation.
func (s *AdaptiveMPFR) Format(v Value) string {
	av := s.get(v)
	return av.f.Text(0)
}

// OpCycles estimates cost at the base precision (the common case; escalated
// values are rare by design).
func (s *AdaptiveMPFR) OpCycles(op Op) uint64 {
	inner := &MPFRSystem{prec: s.base, rnd: s.rnd}
	return inner.OpCycles(op)
}

// PrecOf exposes a value's current working precision (tests, diagnostics).
func (s *AdaptiveMPFR) PrecOf(v Value) uint { return s.get(v).prec }
