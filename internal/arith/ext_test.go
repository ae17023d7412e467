package arith

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// --- AdaptiveMPFR -----------------------------------------------------------

func TestAdaptiveConformance(t *testing.T) {
	conformance(t, NewAdaptiveMPFR(64, 1024), 1e-12)
}

func TestAdaptiveEscalatesOnCancellation(t *testing.T) {
	s := NewAdaptiveMPFR(64, 1024)
	// (1 + 2^-40) - 1: loses 40 leading bits → escalation.
	one := s.FromFloat64(nil, 1)
	tiny := s.FromFloat64(nil, math.Exp2(-40))
	sum := s.Apply(nil, OpAdd, one, tiny, nil)
	diff := s.Apply(nil, OpSub, sum, one, nil)
	if s.Escalations == 0 {
		t.Fatal("no escalation recorded on catastrophic cancellation")
	}
	if s.PrecOf(diff) <= 64 {
		t.Fatalf("result precision %d did not escalate", s.PrecOf(diff))
	}
	if got := s.ToFloat64(diff); got != math.Exp2(-40) {
		t.Fatalf("cancellation result %g, want 2^-40", got)
	}
}

func TestAdaptiveNoEscalationWhenWellConditioned(t *testing.T) {
	s := NewAdaptiveMPFR(64, 1024)
	a, b := s.FromFloat64(nil, 3.5), s.FromFloat64(nil, 2.25)
	for i := 0; i < 100; i++ {
		a = s.Apply(nil, OpAdd, a, b, nil)
	}
	if s.Escalations != 0 {
		t.Fatalf("well-conditioned sums escalated %d times", s.Escalations)
	}
	if s.PrecOf(a) != 64 {
		t.Fatalf("precision crept to %d", s.PrecOf(a))
	}
}

func TestAdaptiveCeiling(t *testing.T) {
	s := NewAdaptiveMPFR(64, 128)
	v := s.FromFloat64(nil, 1)
	for i := 0; i < 10; i++ {
		tiny := s.FromFloat64(nil, math.Exp2(-40))
		sum := s.Apply(nil, OpAdd, v, tiny, nil)
		v = s.Apply(nil, OpSub, sum, s.FromFloat64(nil, 1), nil)
		v = s.Apply(nil, OpAdd, s.FromFloat64(nil, 1), Value(v), nil)
	}
	// Precision must never exceed the ceiling.
	if got := s.PrecOf(v); got > 128 {
		t.Fatalf("precision %d exceeded ceiling 128", got)
	}
}

func TestAdaptivePrecisionPropagates(t *testing.T) {
	s := NewAdaptiveMPFR(64, 2048)
	one := s.FromFloat64(nil, 1)
	tiny := s.FromFloat64(nil, math.Exp2(-40))
	diff := s.Apply(nil, OpSub, s.Apply(nil, OpAdd, one, tiny, nil), one, nil) // escalated
	hi := s.PrecOf(diff)
	prod := s.Apply(nil, OpMul, diff, s.FromFloat64(nil, 3), nil)
	if s.PrecOf(prod) != hi {
		t.Fatalf("escalated precision did not propagate: %d → %d", hi, s.PrecOf(prod))
	}
}

// --- IntervalSystem ---------------------------------------------------------

func TestIntervalConformance(t *testing.T) {
	conformance(t, IntervalSystem{}, 1e-9)
}

// TestIntervalContainment: the defining soundness property — the exact
// result is always inside the interval — checked against high-precision
// reference computation over random expression chains.
func TestIntervalContainment(t *testing.T) {
	s := IntervalSystem{}
	m := NewMPFR(256)
	r := rand.New(rand.NewSource(80))
	ops := []Op{OpAdd, OpSub, OpMul, OpDiv, OpSqrt, OpExp, OpLog, OpSin, OpCos, OpAtan}
	for trial := 0; trial < 300; trial++ {
		x := r.Float64()*4 + 0.5
		ivVal := s.FromFloat64(nil, x)
		mpVal := m.FromFloat64(nil, x)
		for step := 0; step < 12; step++ {
			op := ops[r.Intn(len(ops))]
			if op.Arity() == 2 {
				y := r.Float64()*2 + 0.25
				ivVal = s.Apply(nil, op, ivVal, s.FromFloat64(nil, y), nil)
				mpVal = m.Apply(nil, op, mpVal, m.FromFloat64(nil, y), nil)
			} else {
				// Keep log/sqrt in-domain.
				if mid := s.ToFloat64(ivVal); (op == OpLog || op == OpSqrt) && mid <= 0 {
					continue
				}
				ivVal = s.Apply(nil, op, ivVal, nil, nil)
				mpVal = m.Apply(nil, op, mpVal, nil, nil)
			}
			// Keep magnitudes sane.
			if math.Abs(s.ToFloat64(ivVal)) > 1e6 {
				break
			}
			i := ivVal.(Interval)
			if i.isNaN() || m.IsNaN(mpVal) {
				break
			}
			exactV := m.ToFloat64(mpVal)
			if exactV < i.Lo || exactV > i.Hi {
				t.Fatalf("trial %d step %d op %v: exact %.17g outside [%.17g, %.17g]",
					trial, step, op, exactV, i.Lo, i.Hi)
			}
		}
	}
}

func TestIntervalWidthGrows(t *testing.T) {
	s := IntervalSystem{}
	v := s.FromFloat64(nil, 1)
	third := s.Apply(nil, OpDiv, s.FromFloat64(nil, 1), s.FromFloat64(nil, 3), nil)
	for i := 0; i < 1000; i++ {
		v = s.Apply(nil, OpAdd, v, third, nil)
	}
	w := v.(Interval).Width()
	if w <= 0 {
		t.Fatal("accumulated interval should have positive width")
	}
	if w > 1e-9 {
		t.Fatalf("width %g implausibly large for 1000 adds", w)
	}
}

func TestIntervalDivisionByZeroSpan(t *testing.T) {
	s := IntervalSystem{}
	wide := Interval{-1, 1}
	q := s.Apply(nil, OpDiv, s.FromFloat64(nil, 1), Value(wide), nil).(Interval)
	if !math.IsInf(q.Lo, -1) || !math.IsInf(q.Hi, 1) {
		t.Fatalf("1/[-1,1] = %v, want whole line", q)
	}
}

func TestIntervalTrigBounds(t *testing.T) {
	s := IntervalSystem{}
	// An interval spanning the sin maximum must contain 1.
	x := Interval{1.4, 1.8} // spans π/2
	r := s.Apply(nil, OpSin, Value(x), nil, nil).(Interval)
	if r.Hi < 1 {
		t.Fatalf("sin([1.4,1.8]).Hi = %g, must reach 1", r.Hi)
	}
	if r.Lo > math.Sin(1.4) {
		t.Fatal("lower bound must cover endpoint values")
	}
	// Intervals wider than π cover [-1, 1].
	wide := s.Apply(nil, OpCos, Value(Interval{0, 10}), nil, nil).(Interval)
	if wide.Lo != -1 || wide.Hi != 1 {
		t.Fatalf("cos of wide interval = %v", wide)
	}
}

func TestIntervalFormat(t *testing.T) {
	s := IntervalSystem{}
	if got := s.Format(s.FromFloat64(nil, 2.5)); got != "2.5" {
		t.Errorf("point format %q", got)
	}
	w := s.Format(Value(Interval{1, 2}))
	if !strings.Contains(w, "[1, 2]") {
		t.Errorf("interval format %q", w)
	}
}

// --- BFloat16System ---------------------------------------------------------

func TestBFloat16Conformance(t *testing.T) {
	conformance(t, BFloat16System{}, 1.0/64) // 8 mantissa bits ≈ 2^-8 rel
}

func TestBFloat16Rounding(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{1.0, 1.0},
		{1.5, 1.5},
		{1.0 + 1.0/256, 1.0},       // below half ulp at 8 bits: rounds down
		{1.0 + 3.0/512, 1.0078125}, // above half ulp: rounds up
		{256, 256},
		{1e38, 9.969209968386869e+37}, // rounded to 8 mantissa bits
	}
	for _, c := range cases {
		if got := roundBF16(c.in); got != c.want {
			t.Errorf("roundBF16(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	// Specials pass through.
	if !math.IsNaN(roundBF16(math.NaN())) {
		t.Error("NaN")
	}
	if !math.IsInf(roundBF16(math.Inf(1)), 1) {
		t.Error("Inf")
	}
	if roundBF16(0) != 0 {
		t.Error("zero")
	}
	// Overflow to Inf beyond float32 range.
	if !math.IsInf(roundBF16(1e39), 1) {
		t.Error("1e39 should overflow bfloat16")
	}
}

func TestBFloat16IdempotentRounding(t *testing.T) {
	r := rand.New(rand.NewSource(81))
	for i := 0; i < 10000; i++ {
		v := (r.Float64() - 0.5) * math.Exp2(float64(r.Intn(60)-30))
		b1 := roundBF16(v)
		if b2 := roundBF16(b1); b2 != b1 {
			t.Fatalf("rounding not idempotent: %v → %v → %v", v, b1, b2)
		}
		// The result must have at most 8 significant mantissa bits.
		bits := math.Float32bits(float32(b1))
		if bits&0xFFFF != 0 {
			t.Fatalf("%v has low float32 bits set: %#x", b1, bits)
		}
	}
}

func TestBFloat16LosesPrecisionVsDouble(t *testing.T) {
	s := BFloat16System{}
	// Summing 0.1 256 times drifts visibly at 8 mantissa bits.
	acc := s.FromFloat64(nil, 0)
	tenth := s.FromFloat64(nil, 0.1)
	for i := 0; i < 256; i++ {
		acc = s.Apply(nil, OpAdd, acc, tenth, nil)
	}
	got := s.ToFloat64(acc)
	if math.Abs(got-25.6) < 0.01 {
		t.Fatalf("bfloat16 sum %v suspiciously accurate", got)
	}
	if math.Abs(got-25.6) > 8 {
		t.Fatalf("bfloat16 sum %v implausibly bad", got)
	}
}
