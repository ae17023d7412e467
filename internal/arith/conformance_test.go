package arith

import (
	"math"
	"testing"

	"fpvm/internal/fpu"
	"fpvm/internal/posit"
)

// conformanceInputs is the shared input vector every system is driven over:
// ordinary values plus the full IEEE special-value zoo — both zero signs,
// both infinities, quiet and signaling NaN, subnormals at both ends, and
// boundary magnitudes.
var conformanceInputs = []float64{
	0, math.Copysign(0, -1),
	1, -1, 0.5, -0.5, 2, -2, 3.14159265358979, -2.718281828459045,
	1e-3, -1e-3, 1e10, -1e10, 0.1, -0.1,
	math.Inf(1), math.Inf(-1),
	math.NaN(),
	math.Float64frombits(0x7FF0000000000001), // signaling NaN
	math.Float64frombits(1),                  // smallest subnormal
	math.Float64frombits(0x000FFFFFFFFFFFFF), // largest subnormal
	math.SmallestNonzeroFloat64 * 4,
	math.MaxFloat64, -math.MaxFloat64,
	math.MaxFloat64 / 2,
	1.0000000000000002, // 1 + ulp
}

// allSystems returns one instance of every arithmetic system in the tree.
func allSystems() []System {
	return []System{
		Vanilla{},
		NewMPFR(200),
		NewPosit(posit.Posit32),
		BFloat16System{},
		IntervalSystem{},
		NewAdaptiveMPFR(64, 256),
	}
}

// argTuples enumerates the input combinations for an op: the full cross
// product for unary ops, and a structured sweep for binary/ternary ops
// (full cross product over a compact subset plus a diagonal over the rest,
// to keep the table O(n²) rather than O(n³)).
func argTuples(arity int) [][]float64 {
	var out [][]float64
	switch arity {
	case 1:
		for _, a := range conformanceInputs {
			out = append(out, []float64{a})
		}
	case 2:
		for _, a := range conformanceInputs {
			for _, b := range conformanceInputs {
				out = append(out, []float64{a, b})
			}
		}
	case 3:
		for i, a := range conformanceInputs {
			for _, b := range conformanceInputs {
				c := conformanceInputs[(i*7+3)%len(conformanceInputs)]
				out = append(out, []float64{a, b, c})
			}
		}
	}
	return out
}

// fpuRef computes the native machine's software-FPU answer for op — the
// reference Vanilla is pinned against.
func fpuRef(op Op, args []float64) float64 {
	var r fpu.Result
	switch op {
	case OpAdd:
		r = fpu.Add(args[0], args[1])
	case OpSub:
		r = fpu.Sub(args[0], args[1])
	case OpMul:
		r = fpu.Mul(args[0], args[1])
	case OpDiv:
		r = fpu.Div(args[0], args[1])
	case OpSqrt:
		r = fpu.Sqrt(args[0])
	case OpFMA:
		r = fpu.FMAdd(args[0], args[1], args[2])
	case OpMin:
		r = fpu.Min(args[0], args[1])
	case OpMax:
		r = fpu.Max(args[0], args[1])
	case OpAbs:
		r = fpu.Fabs(args[0])
	case OpNeg:
		r = fpu.Fneg(args[0])
	case OpSin:
		r = fpu.Fsin(args[0])
	case OpCos:
		r = fpu.Fcos(args[0])
	case OpTan:
		r = fpu.Ftan(args[0])
	case OpAsin:
		r = fpu.Fasin(args[0])
	case OpAcos:
		r = fpu.Facos(args[0])
	case OpAtan:
		r = fpu.Fatan(args[0])
	case OpAtan2:
		r = fpu.Fatan2(args[0], args[1])
	case OpExp:
		r = fpu.Fexp(args[0])
	case OpLog:
		r = fpu.Flog(args[0])
	case OpLog2:
		r = fpu.Flog2(args[0])
	case OpLog10:
		r = fpu.Flog10(args[0])
	case OpPow:
		r = fpu.Fpow(args[0], args[1])
	case OpMod:
		r = fpu.Fmod(args[0], args[1])
	case OpHypot:
		r = fpu.Fhypot(args[0], args[1])
	case OpFloor:
		r = fpu.Ffloor(args[0])
	case OpCeil:
		r = fpu.Fceil(args[0])
	case OpRound:
		r = fpu.Fround(args[0])
	case OpTrunc:
		r = fpu.Ftrunc(args[0])
	}
	return r.Value
}

// TestVanillaConformsBitExact pins Vanilla against the software FPU over
// every operation and the full special-value table: identical bits,
// NaN payloads included. This is the per-op unit-level face of the
// differential oracle's whole-program bit-exactness guarantee.
func TestVanillaConformsBitExact(t *testing.T) {
	sys := Vanilla{}
	for op := Op(0); op < NumOps; op++ {
		for _, args := range argTuples(op.Arity()) {
			vals := make([]Value, len(args))
			for i, a := range args {
				vals[i] = sys.FromFloat64(nil, a)
			}
			got := math.Float64bits(sys.ToFloat64(applySlice(sys, op, vals)))
			want := math.Float64bits(fpuRef(op, args))
			if got != want {
				t.Fatalf("vanilla %s(%v): got %#016x (%v), fpu %#016x (%v)",
					op, args, got, math.Float64frombits(got),
					want, math.Float64frombits(want))
			}
		}
	}
}

// relTol is the per-system relative tolerance the accuracy leg of the
// conformance suite enforces on well-conditioned finite inputs. The high-
// precision systems must be at least as accurate as IEEE double; the
// narrow-format systems get bounds matching their mantissa widths.
func relTol(name string) float64 {
	switch name {
	case "vanilla":
		return 0 // bit-exact, checked separately
	case "mpfr200", "adaptive-mpfr64..256":
		return 1e-15
	case "posit32e2":
		return 1e-5 // 27-bit max fraction near 1.0
	case "bfloat16":
		return 1e-1 // 8-bit mantissa, and bf16 mul/div compound it
	case "interval":
		return 1e-15 // thin interval midpoint after a single op
	}
	return 1e-2
}

// TestAllSystemsConformance drives every Op of every System over the shared
// input vector and checks three properties on each evaluation:
//
//  1. Totality: Apply, ToFloat64, Format, and IsNaN never panic, whatever
//     mix of zeros, infinities, NaNs, and denormals comes in.
//  2. NaN discipline: a NaN among the operands of a core arithmetic op
//     yields a value the system itself classifies as NaN (posit NaR,
//     empty/NaN interval, IEEE NaN).
//  3. Accuracy: on well-conditioned finite inputs (normal magnitudes well
//     inside every system's dynamic range, IEEE result finite and normal),
//     the demoted result is within the system's documented tolerance of
//     the IEEE double answer.
func TestAllSystemsConformance(t *testing.T) {
	for _, sys := range allSystems() {
		sys := sys
		t.Run(sys.Name(), func(t *testing.T) {
			tol := relTol(sys.Name())
			for op := Op(0); op < NumOps; op++ {
				for _, args := range argTuples(op.Arity()) {
					vals := make([]Value, len(args))
					anyNaN := false
					for i, a := range args {
						vals[i] = sys.FromFloat64(nil, a)
						if math.IsNaN(a) {
							anyNaN = true
						}
					}
					res := applySlice(sys, op, vals) // property 1: must not panic
					back := sys.ToFloat64(res)
					if s := sys.Format(res); s == "" {
						t.Fatalf("%s(%v): empty Format", op, args)
					}
					// The system's own view of the inputs: narrow formats
					// round them (bfloat16 takes MaxFloat64 to +Inf, posit
					// folds -0 into 0), and every property below must judge
					// the system on what it was actually given.
					ra := make([]float64, len(vals))
					for i, v := range vals {
						ra[i] = sys.ToFloat64(v)
					}

					// Property 2: NaN in, NaN-class out, for ops that
					// propagate NaN unconditionally. Excluded: min/max
					// (x64 semantics return the second operand on NaN),
					// pow (pow(NaN,0)=1 per IEEE), and tuples with an
					// infinity (hypot(NaN,Inf)=Inf and similar carve-outs).
					anyInf := false
					for _, a := range ra {
						if math.IsInf(a, 0) {
							anyInf = true
						}
					}
					if anyNaN && !anyInf && op != OpPow && op != OpMin && op != OpMax {
						if !sys.IsNaN(res) {
							t.Fatalf("%s(%v): NaN operand produced non-NaN %v",
								op, args, back)
						}
						continue
					}
					if anyNaN {
						continue
					}

					// Property 3: accuracy on the well-conditioned subset.
					// The reference is IEEE applied to the SYSTEM-ROUNDED
					// inputs: narrow formats cannot represent every double,
					// and re-rounding the inputs isolates the system's
					// arithmetic error from its representation error (the
					// comparison methodology format-war papers use).
					if tol == 0 {
						continue
					}
					want := fpuRef(op, ra)
					if !wellConditioned(op, ra, want) {
						continue
					}
					if math.IsNaN(back) {
						t.Fatalf("%s(%v): spurious NaN (ieee %v)", op, args, want)
					}
					err := math.Abs(back - want)
					if want != 0 {
						err /= math.Abs(want) // relative where meaningful
					}
					if lim := tol * condition(op, ra); err > lim {
						t.Fatalf("%s(%v) = %v, ieee %v: err %.3e > %.3e",
							op, args, back, want, err, lim)
					}
				}
			}
		})
	}
}

// wellConditioned reports whether every input and the IEEE result are
// finite normal values of moderate magnitude — inputs every narrow or
// tapered format in the tree represents without saturating, so accuracy
// comparisons are meaningful for all systems at once. Circular-trig
// arguments are capped much lower: sin(x) has condition number ~x, so at
// x = 1e10 a narrow format's representation error in x alone randomizes
// the result, telling us nothing about the system's arithmetic.
func wellConditioned(op Op, args []float64, ieee float64) bool {
	lim := 1e10
	if op == OpSin || op == OpCos || op == OpTan {
		lim = 10
	}
	for _, a := range args {
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return false
		}
		if m := math.Abs(a); m != 0 && (m < 1e-3 || m > lim) {
			return false
		}
	}
	if math.IsNaN(ieee) || math.IsInf(ieee, 0) {
		return false
	}
	m := math.Abs(ieee)
	return m == 0 || (m >= 1e-3 && m <= 1e10)
}

// condition returns a tolerance multiplier for ops whose relative error is
// legitimately amplified by the inputs: pow's error grows with |y·ln x|
// (the derivative of exp) and with log2|y| half-ulps accumulated by the
// IEEE reference's own repeated squaring (for pow(1+2^-52, 1e10), the
// double-precision reference is ~75 ulps off while mpfr200 is exact);
// mod's grows with the quotient magnitude (each quotient bit consumed is
// a result bit lost).
func condition(op Op, args []float64) float64 {
	c := 1.0
	switch op {
	case OpPow:
		if args[0] > 0 {
			c = math.Abs(args[1] * math.Log(args[0]))
		}
		c = math.Max(c, 4*math.Log2(1+math.Abs(args[1])))
	case OpMod:
		if args[1] != 0 {
			c = math.Abs(args[0] / args[1])
		}
	}
	return math.Max(1, c)
}

// TestConversionAndCompareConformance covers the non-Apply half of the
// System interface on every system: integer round trips, ordering, and
// unordered comparisons.
func TestConversionAndCompareConformance(t *testing.T) {
	for _, sys := range allSystems() {
		sys := sys
		t.Run(sys.Name(), func(t *testing.T) {
			// FromInt64/ToInt64 round trip on small integers (exact in
			// every format in the tree, including bfloat16's 8-bit
			// mantissa).
			for _, i := range []int64{0, 1, -1, 2, 7, -13, 100, -128} {
				v := sys.FromInt64(nil, i)
				got, ok := sys.ToInt64(v, fpu.RCNearest)
				if !ok || got != i {
					t.Errorf("ToInt64(FromInt64(%d)) = %d, ok=%v", i, got, ok)
				}
			}
			// ToInt64 on NaN must report failure.
			if _, ok := sys.ToInt64(sys.FromFloat64(nil, math.NaN()), fpu.RCNearest); ok {
				t.Errorf("ToInt64(NaN) reported success")
			}
			// Ordering.
			one, two := sys.FromFloat64(nil, 1), sys.FromFloat64(nil, 2)
			if ord, un := sys.Compare(one, two); un || ord >= 0 {
				t.Errorf("Compare(1,2) = %d unordered=%v", ord, un)
			}
			if ord, un := sys.Compare(two, one); un || ord <= 0 {
				t.Errorf("Compare(2,1) = %d unordered=%v", ord, un)
			}
			if ord, un := sys.Compare(one, sys.FromFloat64(nil, 1)); un || ord != 0 {
				t.Errorf("Compare(1,1) = %d unordered=%v", ord, un)
			}
			// NaN is unordered against everything, including itself.
			nan := sys.FromFloat64(nil, math.NaN())
			if _, un := sys.Compare(nan, one); !un {
				t.Errorf("Compare(NaN,1) not unordered")
			}
			if _, un := sys.Compare(nan, nan); !un {
				t.Errorf("Compare(NaN,NaN) not unordered")
			}
			if !sys.IsNaN(nan) {
				t.Errorf("IsNaN(FromFloat64(NaN)) = false")
			}
			if sys.IsNaN(one) {
				t.Errorf("IsNaN(1) = true")
			}
		})
	}
}
