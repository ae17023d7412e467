package fpu

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// fmaRefPrec carries a*b + c exactly for any finite doubles: the exact
// product spans at most 2^2048 down to 2^-2148, and an addend reaches down
// to 2^-1074, so no sum needs more than about 3,200 bits.
const fmaRefPrec = 4096

// checkFMAdd compares FMAdd(a, b, c) for finite operands against math/big at
// exact precision: the value must be the exact sum rounded to nearest even,
// PE must be set iff that rounding lost anything, OE iff it overflowed, UE
// iff it was inexact with a zero or subnormal result, DE iff an operand is
// subnormal, and IE and ZE never.
func checkFMAdd(t *testing.T, a, b, c float64) {
	t.Helper()
	got := FMAdd(a, b, c)

	exact := new(big.Float).SetPrec(fmaRefPrec).SetFloat64(a)
	exact.Mul(exact, new(big.Float).SetFloat64(b))
	exact.Add(exact, new(big.Float).SetFloat64(c))
	want, _ := exact.Float64()
	inexact := math.IsInf(want, 0) || new(big.Float).SetFloat64(want).Cmp(exact) != 0

	var flags Flags
	if isSubn(a) || isSubn(b) || isSubn(c) {
		flags |= FlagDenormal
	}
	switch {
	case math.IsInf(want, 0):
		flags |= FlagOverflow | FlagInexact
	case inexact:
		flags |= FlagInexact
		if want == 0 || isSubn(want) {
			flags |= FlagUnderflow
		}
	}
	if got.Value != want || (want != 0 && math.Float64bits(got.Value) != math.Float64bits(want)) {
		t.Fatalf("FMAdd(%v, %v, %v) = %v (%#x), want %v (%#x)",
			a, b, c, got.Value, math.Float64bits(got.Value), want, math.Float64bits(want))
	}
	if got.Flags != flags {
		t.Fatalf("FMAdd(%v, %v, %v) flags %v, want %v", a, b, c, got.Flags, flags)
	}
}

// TestFMAddAddendBelowProduct pins the inexact flag for an addend far below
// the product's last bit. The exact sum of these needs more than 300 bits,
// and x64 raises PE for both.
func TestFMAddAddendBelowProduct(t *testing.T) {
	for _, c := range [][3]float64{
		{1, 1, 0x1p-400},
		{-544, -306, -1.4312293629962995e-176},
	} {
		if r := FMAdd(c[0], c[1], c[2]); r.Flags != FlagInexact {
			t.Errorf("FMAdd(%v, %v, %v) flags %v, want PE", c[0], c[1], c[2], r.Flags)
		}
		checkFMAdd(t, c[0], c[1], c[2])
	}
}

// TestFMAddMatchesBig drives both sides of the error-free transform's
// exponent window — products and results near the subnormal range and near
// overflow, exact cancellations, addends just inside and far below the
// product's last bit — and checks every case against math/big.
func TestFMAddMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	mant := func() float64 { return 1 + rng.Float64() }
	sign := func(v float64) float64 {
		if rng.Intn(2) == 0 {
			return -v
		}
		return v
	}
	scale := func(v float64, e int) float64 { return math.Ldexp(v, e) }
	for i := 0; i < 30000; i++ {
		var a, b, c float64
		switch i % 6 {
		case 0: // anywhere in the exponent range
			a = sign(scale(mant(), rng.Intn(2100)-1075))
			b = sign(scale(mant(), rng.Intn(2100)-1075))
			c = sign(scale(mant(), rng.Intn(2100)-1075))
		case 1: // product near the subnormal range
			a = sign(scale(mant(), -rng.Intn(600)-300))
			b = sign(scale(mant(), -rng.Intn(800)+50))
			c = sign(scale(mant(), -rng.Intn(120)-960))
		case 2: // exact or near cancellation of the product
			a = sign(scale(float64(rng.Intn(1<<26)+1), rng.Intn(200)-100))
			b = sign(scale(float64(rng.Intn(1<<26)+1), rng.Intn(200)-100))
			c = -a * b
			if rng.Intn(2) == 0 {
				c = math.Nextafter(c, math.Inf(rng.Intn(2)*2-1))
			}
		case 3: // addend around and below the product's last bit
			a, b = sign(mant()), sign(mant())
			c = sign(scale(mant(), -rng.Intn(1100)-40))
		case 4: // near overflow
			a = sign(scale(mant(), rng.Intn(40)+500))
			b = sign(scale(mant(), rng.Intn(40)+470))
			c = sign(scale(mant(), rng.Intn(30)+995))
		case 5: // small integers: exact results
			a = float64(rng.Intn(2000) - 1000)
			b = float64(rng.Intn(2000) - 1000)
			c = float64(rng.Intn(2000) - 1000)
		}
		if math.IsInf(a, 0) || math.IsInf(b, 0) || math.IsInf(c, 0) {
			continue
		}
		checkFMAdd(t, a, b, c)
	}
}

// FuzzFMAdd checks FMAdd's value and flags against math/big at exact
// precision for finite operands, and that non-finite operands never panic.
func FuzzFMAdd(f *testing.F) {
	f.Add(2.0, 3.0, 4.0)
	f.Add(0.1, 0.1, 0.1)
	f.Fuzz(func(t *testing.T, a, b, c float64) {
		for _, v := range [...]float64{a, b, c} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				FMAdd(a, b, c)
				return
			}
		}
		checkFMAdd(t, a, b, c)
	})
}
