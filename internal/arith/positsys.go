package arith

import (
	"fmt"
	"math"

	"fpvm/internal/fpu"
	"fpvm/internal/mpfr"
	"fpvm/internal/posit"
)

// PositSystem plugs posit arithmetic into FPVM, the analog of the paper's
// Universal Numbers Library port. The posit width/exponent configuration is
// chosen at construction, like the library's compile-time selection.
//
// Operations outside the posit standard's core set (trigonometry etc.) are
// computed through guarded mpfr intermediates and rounded once to the posit
// lattice, which is how softposit-style libraries implement their math
// layers.
type PositSystem struct {
	cfg  posit.Config
	work uint // mpfr working precision for transcendental detours
}

var _ System = (*PositSystem)(nil)

// NewPosit returns a posit arithmetic system for the given configuration.
func NewPosit(cfg posit.Config) *PositSystem {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &PositSystem{cfg: cfg, work: 2*cfg.NBits + 32}
}

// Name returns e.g. "posit32e2".
func (s *PositSystem) Name() string {
	return fmt.Sprintf("posit%de%d", s.cfg.NBits, s.cfg.ES)
}

// Config returns the posit format in use.
func (s *PositSystem) Config() posit.Config { return s.cfg }

func (s *PositSystem) get(v Value) posit.Posit { return v.(posit.Posit) }

// Apply evaluates op on posit operands.
func (s *PositSystem) Apply(_ Value, op Op, x, y, w Value) Value {
	c := s.cfg
	args := [...]Value{x, y, w}
	a := func(i int) posit.Posit { return s.get(args[i]) }
	switch op {
	case OpAdd:
		return c.Add(a(0), a(1))
	case OpSub:
		return c.Sub(a(0), a(1))
	case OpMul:
		return c.Mul(a(0), a(1))
	case OpDiv:
		return c.Div(a(0), a(1))
	case OpSqrt:
		return c.Sqrt(a(0))
	case OpFMA:
		return c.FMA(a(0), a(1), a(2))
	case OpMin:
		if c.IsNaR(a(0)) || c.IsNaR(a(1)) || c.Cmp(a(0), a(1)) >= 0 {
			return a(1)
		}
		return a(0)
	case OpMax:
		if c.IsNaR(a(0)) || c.IsNaR(a(1)) || c.Cmp(a(0), a(1)) <= 0 {
			return a(1)
		}
		return a(0)
	case OpAbs:
		return c.Abs(a(0))
	case OpNeg:
		return c.Neg(a(0))
	case OpAtan2, OpPow, OpMod, OpHypot:
		return s.binaryViaMPFR(op, a(0), a(1))
	case OpSin, OpCos, OpTan, OpAsin, OpAcos, OpAtan,
		OpExp, OpLog, OpLog2, OpLog10, OpFloor, OpCeil, OpRound, OpTrunc:
		return s.unaryViaMPFR(op, a(0))
	default:
		panic("posit system: bad op " + op.String())
	}
}

func (s *PositSystem) unaryViaMPFR(op Op, p posit.Posit) posit.Posit {
	if s.cfg.IsNaR(p) {
		return s.cfg.NaR()
	}
	x := mpfr.New(s.cfg.NBits + 2)
	s.cfg.ToMPFR(p, x)
	z := mpfr.New(s.work)
	var t int
	switch op {
	case OpSin:
		t = z.Sin(x, mpfr.RoundTowardZero)
	case OpCos:
		t = z.Cos(x, mpfr.RoundTowardZero)
	case OpTan:
		t = z.Tan(x, mpfr.RoundTowardZero)
	case OpAsin:
		t = z.Asin(x, mpfr.RoundTowardZero)
	case OpAcos:
		t = z.Acos(x, mpfr.RoundTowardZero)
	case OpAtan:
		t = z.Atan(x, mpfr.RoundTowardZero)
	case OpExp:
		t = z.Exp(x, mpfr.RoundTowardZero)
	case OpLog:
		t = z.Log(x, mpfr.RoundTowardZero)
	case OpLog2:
		t = z.Log2(x, mpfr.RoundTowardZero)
	case OpLog10:
		t = z.Log10(x, mpfr.RoundTowardZero)
	case OpFloor:
		t = z.Floor(x)
	case OpCeil:
		t = z.Ceil(x)
	case OpRound:
		t = z.Round(x)
	case OpTrunc:
		t = z.Trunc(x)
	}
	return s.cfg.FromMPFR(z, t != 0)
}

func (s *PositSystem) binaryViaMPFR(op Op, p, q posit.Posit) posit.Posit {
	if s.cfg.IsNaR(p) || s.cfg.IsNaR(q) {
		return s.cfg.NaR()
	}
	x := mpfr.New(s.cfg.NBits + 2)
	y := mpfr.New(s.cfg.NBits + 2)
	s.cfg.ToMPFR(p, x)
	s.cfg.ToMPFR(q, y)
	z := mpfr.New(s.work)
	var t int
	switch op {
	case OpAtan2:
		t = z.Atan2(x, y, mpfr.RoundTowardZero)
	case OpPow:
		t = z.Pow(x, y, mpfr.RoundTowardZero)
	case OpHypot:
		t = z.Hypot(x, y, mpfr.RoundTowardZero)
	case OpMod:
		// Truncated remainder through exact mpfr arithmetic.
		if y.IsZero() {
			return s.cfg.NaR()
		}
		qf := mpfr.New(s.work)
		qf.Div(x, y, mpfr.RoundTowardZero)
		qf.Trunc(qf)
		m := mpfr.New(s.work)
		m.Mul(qf, y, mpfr.RoundNearestEven)
		t = z.Sub(x, m, mpfr.RoundTowardZero)
	}
	return s.cfg.FromMPFR(z, t != 0)
}

// FromFloat64 promotes (rounds) an IEEE double to the posit lattice.
func (s *PositSystem) FromFloat64(_ Value, v float64) Value { return s.cfg.FromFloat64(v) }

// ToFloat64 demotes to the nearest IEEE double.
func (s *PositSystem) ToFloat64(v Value) float64 { return s.cfg.ToFloat64(s.get(v)) }

// FromInt64 promotes an integer.
func (s *PositSystem) FromInt64(_ Value, i int64) Value {
	f := mpfr.New(66)
	f.SetInt64(i, mpfr.RoundNearestEven)
	return s.cfg.FromMPFR(f, false)
}

// ToInt64 converts to an integer with the given rounding control.
func (s *PositSystem) ToInt64(v Value, rc fpu.RoundingControl) (int64, bool) {
	p := s.get(v)
	if s.cfg.IsNaR(p) {
		return math.MinInt64, false
	}
	f := mpfr.New(s.cfg.NBits + 2)
	s.cfg.ToMPFR(p, f)
	var m mpfr.RoundingMode
	switch rc {
	case fpu.RCDown:
		m = mpfr.RoundTowardNegative
	case fpu.RCUp:
		m = mpfr.RoundTowardPositive
	case fpu.RCZero:
		m = mpfr.RoundTowardZero
	default:
		m = mpfr.RoundNearestEven
	}
	return f.Int64(m)
}

// Compare orders two posits; NaR is unordered (IEEE view of the program).
func (s *PositSystem) Compare(a, b Value) (int, bool) {
	x, y := s.get(a), s.get(b)
	if s.cfg.IsNaR(x) || s.cfg.IsNaR(y) {
		return 0, true
	}
	return s.cfg.Cmp(x, y), false
}

// IsNaN reports whether v is NaR.
func (s *PositSystem) IsNaN(v Value) bool { return s.cfg.IsNaR(s.get(v)) }

// Format renders a posit for hijacked output.
func (s *PositSystem) Format(v Value) string { return s.cfg.Format(s.get(v)) }

// OpCycles estimates software-posit costs (decode + integer arithmetic +
// rounding/encode), roughly flat across the basic ops as in softposit.
func (s *PositSystem) OpCycles(op Op) uint64 {
	base := uint64(300 + 8*s.cfg.NBits)
	switch op {
	case OpDiv, OpSqrt, OpMod:
		return 3 * base
	case OpSin, OpCos, OpTan, OpAsin, OpAcos, OpAtan, OpAtan2,
		OpExp, OpLog, OpLog2, OpLog10, OpPow, OpHypot:
		return 12 * base
	default:
		return base
	}
}
