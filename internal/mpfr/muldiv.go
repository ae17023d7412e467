package mpfr

// Mul sets z to x * y rounded to z's precision and returns the ternary value.
func (z *Float) Mul(x, y *Float, rnd RoundingMode) int {
	neg := x.neg != y.neg
	switch {
	case x.form == nan || y.form == nan:
		z.setNaN()
		return 0
	case x.form == inf || y.form == inf:
		if x.form == zero || y.form == zero {
			z.setNaN() // 0 * Inf
		} else {
			z.setInf(neg)
		}
		return 0
	case x.form == zero || y.form == zero:
		z.setZero(neg)
		return 0
	}
	sc := getScratch()
	defer putScratch(sc)
	sc.a = sc.a.Mul(x.mant, y.mant)
	return z.setRounded(neg, sc.a, x.unitExp()+y.unitExp(), false, rnd)
}

// Sqr sets z to x² rounded to z's precision and returns the ternary value.
// It is semantically Mul(x, x, rnd) but uses mpnat's dedicated squaring
// kernel, which computes each symmetric cross product once — the win that
// makes exponentiation's square-and-multiply ladders and the argument-
// reduction squarings in exp/atan/atanh measurably cheaper.
func (z *Float) Sqr(x *Float, rnd RoundingMode) int {
	switch x.form {
	case nan:
		z.setNaN()
		return 0
	case inf:
		z.setInf(false) // (±Inf)² = +Inf
		return 0
	case zero:
		z.setZero(false) // (±0)² = +0
		return 0
	}
	sc := getScratch()
	defer putScratch(sc)
	sc.a = sc.a.Sqr(x.mant)
	return z.setRounded(false, sc.a, 2*x.unitExp(), false, rnd)
}

// Div sets z to x / y rounded to z's precision and returns the ternary value.
func (z *Float) Div(x, y *Float, rnd RoundingMode) int {
	neg := x.neg != y.neg
	switch {
	case x.form == nan || y.form == nan:
		z.setNaN()
		return 0
	case x.form == inf && y.form == inf:
		z.setNaN()
		return 0
	case x.form == inf:
		z.setInf(neg)
		return 0
	case y.form == inf:
		z.setZero(neg)
		return 0
	case y.form == zero:
		if x.form == zero {
			z.setNaN() // 0 / 0
		} else {
			z.setInf(neg) // x / 0, IEEE divide-by-zero
		}
		return 0
	case x.form == zero:
		z.setZero(neg)
		return 0
	}
	// Produce a quotient with at least prec+3 bits; a nonzero remainder is
	// all setRounded needs to know about the bits below it.
	prec := int64(z.effPrec())
	shift := prec + 3 + int64(y.mant.BitLen()) - int64(x.mant.BitLen())
	if shift < 0 {
		shift = 0
	}
	sc := getScratch()
	defer putScratch(sc)
	sc.a = sc.a.Shl(x.mant, uint(shift))
	sc.b, sc.c = sc.b.DivMod(sc.c, sc.a, y.mant)
	return z.setRounded(neg, sc.b, x.unitExp()-y.unitExp()-shift, len(sc.c) != 0, rnd)
}

// Sqrt sets z to the square root of x rounded to z's precision and returns
// the ternary value. Sqrt of a negative number is NaN; Sqrt(-0) is -0.
func (z *Float) Sqrt(x *Float, rnd RoundingMode) int {
	switch {
	case x.form == nan:
		z.setNaN()
		return 0
	case x.form == zero:
		z.setZero(x.neg)
		return 0
	case x.neg:
		z.setNaN()
		return 0
	case x.form == inf:
		z.setInf(false)
		return 0
	}
	// Value is m * 2^e; scale m up so the integer square root carries at
	// least prec+3 bits, keeping the exponent even.
	prec := int64(z.effPrec())
	m := x.mant
	e := x.unitExp()
	want := 2 * (prec + 3)
	shift := want - int64(m.BitLen())
	if shift < 0 {
		shift = 0
	}
	if (e-shift)%2 != 0 {
		shift++
	}
	sc := getScratch()
	defer putScratch(sc)
	sc.a = sc.a.Shl(m, uint(shift))
	sc.b, sc.c = sc.b.SqrtRem(sc.c, sc.a)
	// A nonzero remainder means the root is inexact: the sticky bit.
	return z.setRounded(false, sc.b, (e-shift)/2, len(sc.c) != 0, rnd)
}

// FMA sets z to x*y + w with a single rounding (fused multiply-add) and
// returns the ternary value.
func (z *Float) FMA(x, y, w *Float, rnd RoundingMode) int {
	// Specials: delegate to Mul semantics for the product, then Add.
	if x.form != finite || y.form != finite || w.form != finite {
		prodPrec := x.effPrec() + y.effPrec()
		prod := New(uint(prodPrec))
		prod.Mul(x, y, RoundNearestEven) // exact or special
		return z.Add(prod, w, rnd)
	}
	negP := x.neg != y.neg
	sc := getScratch()
	defer putScratch(sc)
	sc.a = sc.a.Mul(x.mant, y.mant) // exact product
	ep := x.unitExp() + y.unitExp()
	if w.form == zero {
		return z.setRounded(negP, sc.a, ep, false, rnd)
	}
	return z.addMant(negP, sc.a, ep, w.neg, w.mant, w.unitExp(), rnd)
}

// Mul2Exp sets z to x * 2^n exactly (up to z's precision) and returns the
// ternary value.
func (z *Float) Mul2Exp(x *Float, n int64, rnd RoundingMode) int {
	t := z.Set(x, rnd)
	if z.form == finite {
		z.exp += n
	}
	return t
}
