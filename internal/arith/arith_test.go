package arith

import (
	"math"
	"math/rand"
	"testing"

	"fpvm/internal/fpu"
	"fpvm/internal/posit"
)

// conformance runs the cross-system checks every arith.System must pass:
// sane conversions, comparison ordering, NaN handling, Apply over every op,
// and nonzero cost estimates.
func conformance(t *testing.T, sys System, tol float64) {
	t.Helper()

	// Round trips across the IEEE boundary.
	vals := []float64{0, 1, -1, 0.5, 2, -3.25, 1e10, -1e-10, 1234.5678}
	for _, v := range vals {
		got := sys.ToFloat64(sys.FromFloat64(nil, v))
		if math.Abs(got-v) > tol*math.Max(1, math.Abs(v)) {
			t.Errorf("%s: FromFloat64→ToFloat64(%v) = %v", sys.Name(), v, got)
		}
	}

	// Integers.
	for _, i := range []int64{0, 1, -1, 42, -100, 1 << 20} {
		v := sys.FromInt64(nil, i)
		got, ok := sys.ToInt64(v, fpu.RCNearest)
		if !ok || got != i {
			t.Errorf("%s: int round trip %d → %d (%v)", sys.Name(), i, got, ok)
		}
	}

	// NaN handling.
	nan := sys.FromFloat64(nil, math.NaN())
	if !sys.IsNaN(nan) {
		t.Errorf("%s: NaN not recognized", sys.Name())
	}
	if _, unordered := sys.Compare(nan, sys.FromFloat64(nil, 1)); !unordered {
		t.Errorf("%s: NaN compare should be unordered", sys.Name())
	}
	if sys.IsNaN(sys.FromFloat64(nil, 1)) {
		t.Errorf("%s: 1 is not NaN", sys.Name())
	}

	// Ordering.
	a, b := sys.FromFloat64(nil, 1.5), sys.FromFloat64(nil, 2.5)
	if ord, un := sys.Compare(a, b); un || ord != -1 {
		t.Errorf("%s: 1.5 < 2.5 gave %d,%v", sys.Name(), ord, un)
	}
	if ord, _ := sys.Compare(b, a); ord != 1 {
		t.Errorf("%s: 2.5 > 1.5 failed", sys.Name())
	}
	if ord, _ := sys.Compare(a, sys.FromFloat64(nil, 1.5)); ord != 0 {
		t.Errorf("%s: equality failed", sys.Name())
	}

	// Every op applies without panicking and gives a plausible value.
	checks := []struct {
		op   Op
		args []float64
		want float64
	}{
		{OpAdd, []float64{2, 3}, 5},
		{OpSub, []float64{2, 3}, -1},
		{OpMul, []float64{2, 3}, 6},
		{OpDiv, []float64{3, 2}, 1.5},
		{OpSqrt, []float64{9}, 3},
		{OpFMA, []float64{2, 3, 4}, 10},
		{OpMin, []float64{2, 3}, 2},
		{OpMax, []float64{2, 3}, 3},
		{OpAbs, []float64{-7}, 7},
		{OpNeg, []float64{7}, -7},
		{OpSin, []float64{0.5}, math.Sin(0.5)},
		{OpCos, []float64{0.5}, math.Cos(0.5)},
		{OpTan, []float64{0.5}, math.Tan(0.5)},
		{OpAsin, []float64{0.5}, math.Asin(0.5)},
		{OpAcos, []float64{0.5}, math.Acos(0.5)},
		{OpAtan, []float64{0.5}, math.Atan(0.5)},
		{OpAtan2, []float64{1, 2}, math.Atan2(1, 2)},
		{OpExp, []float64{1}, math.E},
		{OpLog, []float64{math.E}, 1},
		{OpLog2, []float64{8}, 3},
		{OpLog10, []float64{100}, 2},
		{OpPow, []float64{2, 10}, 1024},
		{OpMod, []float64{7, 2}, 1},
		{OpHypot, []float64{3, 4}, 5},
		{OpFloor, []float64{2.7}, 2},
		{OpCeil, []float64{2.2}, 3},
		{OpRound, []float64{2.5}, 3},
		{OpTrunc, []float64{-2.7}, -2},
	}
	for _, c := range checks {
		args := make([]Value, len(c.args))
		for i, v := range c.args {
			args[i] = sys.FromFloat64(nil, v)
		}
		if len(args) != c.op.Arity() {
			t.Fatalf("%s: test arity mismatch for %v", sys.Name(), c.op)
		}
		got := sys.ToFloat64(applySlice(sys, c.op, args))
		if math.Abs(got-c.want) > tol*math.Max(1, math.Abs(c.want)) {
			t.Errorf("%s: %v%v = %v, want %v", sys.Name(), c.op, c.args, got, c.want)
		}
		if sys.OpCycles(c.op) == 0 {
			t.Errorf("%s: OpCycles(%v) = 0", sys.Name(), c.op)
		}
	}

	// Format never returns empty.
	if sys.Format(sys.FromFloat64(nil, 1.25)) == "" {
		t.Errorf("%s: empty Format", sys.Name())
	}
	if sys.Name() == "" {
		t.Error("empty Name")
	}
}

func TestVanillaConformance(t *testing.T) { conformance(t, Vanilla{}, 0) }
func TestMPFRConformance(t *testing.T)    { conformance(t, NewMPFR(200), 1e-15) }
func TestMPFR64Conformance(t *testing.T)  { conformance(t, NewMPFR(64), 1e-15) }
func TestPosit32Conformance(t *testing.T) { conformance(t, NewPosit(posit.Posit32), 1e-6) }
func TestPosit64Conformance(t *testing.T) { conformance(t, NewPosit(posit.Posit64), 1e-12) }

// TestVanillaExactIEEE: Vanilla must be bit-exact against the host.
func TestVanillaExactIEEE(t *testing.T) {
	sys := Vanilla{}
	r := rand.New(rand.NewSource(60))
	for i := 0; i < 5000; i++ {
		a := math.Float64frombits(r.Uint64())
		b := math.Float64frombits(r.Uint64())
		if math.IsNaN(a) || math.IsNaN(b) {
			continue
		}
		got := sys.ToFloat64(sys.Apply(nil, OpAdd, a, b, nil))
		want := a + b
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("add(%v,%v) = %v want %v", a, b, got, want)
		}
		got = sys.ToFloat64(sys.Apply(nil, OpMul, a, b, nil))
		want = a * b
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("mul mismatch")
		}
	}
}

// TestMPFRBeatsDouble: at 200 bits, (1 + 2^-100) - 1 survives.
func TestMPFRBeatsDouble(t *testing.T) {
	sys := NewMPFR(200)
	one := sys.FromFloat64(nil, 1)
	tiny := sys.Apply(nil, OpDiv, sys.FromFloat64(nil, 1), sys.Apply(nil, OpPow, sys.FromFloat64(nil, 2), sys.FromFloat64(nil, 100), nil), nil)
	sum := sys.Apply(nil, OpAdd, one, tiny, nil)
	diff := sys.Apply(nil, OpSub, sum, one, nil)
	if sys.ToFloat64(diff) == 0 {
		t.Fatal("200-bit arithmetic lost 2^-100")
	}
	// The same computation in Vanilla loses it.
	v := Vanilla{}
	vd := v.Apply(nil, OpSub, v.Apply(nil, OpAdd, 1.0, math.Exp2(-100), nil), 1.0, nil)
	if v.ToFloat64(vd) != 0 {
		t.Fatal("vanilla should lose 2^-100 (it is IEEE double)")
	}
}

// TestPositMinMaxSemantics: x64-style NaN propagation through min/max.
func TestMinMaxNaNAcrossSystems(t *testing.T) {
	for _, sys := range []System{Vanilla{}, NewMPFR(64), NewPosit(posit.Posit32)} {
		nan := sys.FromFloat64(nil, math.NaN())
		five := sys.FromFloat64(nil, 5)
		// x64: min(NaN, x) = x (second operand).
		if got := sys.ToFloat64(sys.Apply(nil, OpMin, nan, five, nil)); got != 5 {
			t.Errorf("%s: min(NaN,5) = %v", sys.Name(), got)
		}
		if got := sys.Apply(nil, OpMax, five, nan, nil); !sys.IsNaN(got) {
			t.Errorf("%s: max(5,NaN) should be NaN", sys.Name())
		}
	}
}

// TestToInt64RoundingControls across systems.
func TestToInt64RoundingControls(t *testing.T) {
	for _, sys := range []System{Vanilla{}, NewMPFR(64), NewPosit(posit.Posit32)} {
		v := sys.FromFloat64(nil, -2.5)
		if got, ok := sys.ToInt64(v, fpu.RCZero); !ok || got != -2 {
			t.Errorf("%s: RTZ(-2.5) = %d", sys.Name(), got)
		}
		if got, ok := sys.ToInt64(v, fpu.RCDown); !ok || got != -3 {
			t.Errorf("%s: RTN(-2.5) = %d", sys.Name(), got)
		}
		if got, ok := sys.ToInt64(v, fpu.RCUp); !ok || got != -2 {
			t.Errorf("%s: RTP(-2.5) = %d", sys.Name(), got)
		}
		if got, ok := sys.ToInt64(v, fpu.RCNearest); !ok || got != -2 {
			t.Errorf("%s: RNE(-2.5) = %d (ties to even)", sys.Name(), got)
		}
		nan := sys.FromFloat64(nil, math.NaN())
		if _, ok := sys.ToInt64(nan, fpu.RCNearest); ok {
			t.Errorf("%s: ToInt64(NaN) should fail", sys.Name())
		}
	}
}

func TestOpArityTable(t *testing.T) {
	for op := Op(0); op < NumOps; op++ {
		a := op.Arity()
		if a < 1 || a > 3 {
			t.Errorf("%v arity %d", op, a)
		}
	}
	if OpFMA.Arity() != 3 || OpAdd.Arity() != 2 || OpSqrt.Arity() != 1 {
		t.Error("specific arities wrong")
	}
}

func TestOpStrings(t *testing.T) {
	if OpAdd.String() != "add" || OpHypot.String() != "hypot" || OpTrunc.String() != "trunc" {
		t.Error("op names wrong")
	}
	if Op(200).String() == "" {
		t.Error("out of range op should still format")
	}
}

// TestMPFRvsVanillaAgreementAt53 checks the two systems agree bit-for-bit
// when MPFR runs at 53 bits (both are then correctly rounded binary64).
func TestMPFRvsVanillaAgreementAt53(t *testing.T) {
	m, v := NewMPFR(53), Vanilla{}
	r := rand.New(rand.NewSource(61))
	ops := []Op{OpAdd, OpSub, OpMul, OpDiv, OpSqrt}
	for i := 0; i < 3000; i++ {
		a := (r.Float64() - 0.5) * 1e6
		b := (r.Float64() - 0.5) * 1e6
		op := ops[r.Intn(len(ops))]
		var mv, vv float64
		if op.Arity() == 1 {
			a = math.Abs(a)
			mv = m.ToFloat64(m.Apply(nil, op, m.FromFloat64(nil, a), nil, nil))
			vv = v.ToFloat64(v.Apply(nil, op, v.FromFloat64(nil, a), nil, nil))
		} else {
			mv = m.ToFloat64(m.Apply(nil, op, m.FromFloat64(nil, a), m.FromFloat64(nil, b), nil))
			vv = v.ToFloat64(v.Apply(nil, op, v.FromFloat64(nil, a), v.FromFloat64(nil, b), nil))
		}
		if math.Float64bits(mv) != math.Float64bits(vv) {
			t.Fatalf("%v(%v, %v): mpfr53 %v != vanilla %v", op, a, b, mv, vv)
		}
	}
}

// applySlice applies op to an operand slice of any length up to three.
func applySlice(sys System, op Op, args []Value) Value {
	var a [3]Value
	copy(a[:], args)
	return sys.Apply(nil, op, a[0], a[1], a[2])
}
