package mpfr

import "fpvm/internal/mpnat"

// setRounded sets z to (-1)^neg * m * 2^exp2, where m is an arbitrary-length
// integer mantissa, rounded to z's precision with mode rnd. stickyExtra
// indicates that nonzero bits below m were already discarded by the caller.
// It returns the MPFR-style ternary value: 0 exact, +1 if z > exact value,
// -1 if z < exact value.
//
// This is the single rounding point for the whole package: every arithmetic
// operation reduces to producing an exact (or guard+sticky-annotated)
// integer mantissa and calling setRounded. The rounded mantissa is written
// into z.mant's array, so a warm z takes no allocation. m may be z.mant
// itself (SetPrec rounds in place): the guard and sticky bits are read
// before the shift, and mpnat's shifts work in place.
//
// Contract: when stickyExtra is true the caller must supply a mantissa m
// with BitLen(m) >= prec+1, so that the guard bit (the first bit below the
// retained precision) is part of m and only strictly-lower bits were
// discarded. Every caller in this package keeps >= 2 guard bits.
func (z *Float) setRounded(neg bool, m mpnat.Nat, exp2 int64, stickyExtra bool, rnd RoundingMode) int {
	m = m.Norm()
	if len(m) == 0 {
		if stickyExtra {
			// The entire value was discarded bits: round as if from a tiny
			// nonzero magnitude. This only happens for callers that shifted
			// everything out; produce the smallest representable step or
			// zero depending on the mode.
			return z.roundUnderflowSticky(neg, exp2, rnd)
		}
		z.setZero(neg)
		return 0
	}

	prec := int(z.effPrec())
	bl := m.BitLen()
	shift := bl - prec

	guard, sticky := false, stickyExtra
	mant := z.mant
	if n := (prec + 63) / 64; cap(mant) < n {
		// Size a new mantissa exactly: it lives as long as z, often in an
		// arena cell, and the kernels' growth headroom would double it.
		mant = make(mpnat.Nat, 0, n)
	}
	if shift <= 0 {
		mant = mant.Shl(m, uint(-shift))
	} else {
		guard = m.Bit(shift-1) == 1
		// Any nonzero bit below the guard bit?
		sticky = sticky || lowBitsNonzero(m, shift-1)
		mant = mant.Shr(m, uint(shift))
	}
	inexact := guard || sticky
	roundUp := inexact && roundUpDecision(neg, guard, sticky, mant, rnd)

	exp := exp2 + int64(bl)
	if roundUp {
		mant = mant.AddWord(mant, 1)
		if mant.BitLen() > prec {
			// Carry out: 0.111..1 rounded up to 1.000..0.
			mant = mant.Shr(mant, 1)
			exp++
		}
	}

	z.form = finite
	z.neg = neg
	z.exp = exp
	z.mant = mant

	if !inexact {
		return 0
	}
	// Ternary is signed: +1 means the stored value exceeds the exact value.
	if roundUp != neg {
		return 1
	}
	return -1
}

// roundUpDecision decides whether to increment the truncated mantissa.
// guard is the first discarded bit, sticky whether any lower bit is set,
// mant the truncated mantissa (needed for ties-to-even).
func roundUpDecision(neg, guard, sticky bool, mant mpnat.Nat, rnd RoundingMode) bool {
	switch rnd {
	case RoundTowardZero:
		return false
	case RoundTowardPositive:
		return !neg
	case RoundTowardNegative:
		return neg
	case RoundNearestAway:
		return guard
	default: // RoundNearestEven
		if !guard {
			return false
		}
		if sticky {
			return true
		}
		return mant.Bit(0) == 1 // tie: round to even
	}
}

// lowBitsNonzero reports whether any of bits [0, n) of m is nonzero.
func lowBitsNonzero(m mpnat.Nat, n int) bool {
	if n <= 0 {
		return false
	}
	full := n / 64
	for i := 0; i < full && i < len(m); i++ {
		if m[i] != 0 {
			return true
		}
	}
	if rem := uint(n % 64); rem != 0 && full < len(m) {
		if m[full]&((uint64(1)<<rem)-1) != 0 {
			return true
		}
	}
	return false
}

// roundUnderflowSticky handles the degenerate case where the mantissa
// was entirely discarded and only sticky information remains: the exact
// value is nonzero but below every representable bit the caller kept.
func (z *Float) roundUnderflowSticky(neg bool, exp2 int64, rnd RoundingMode) int {
	up := false
	switch rnd {
	case RoundTowardPositive:
		up = !neg
	case RoundTowardNegative:
		up = neg
	}
	if !up {
		z.setZero(neg)
		if neg {
			return 1 // -0 stored, exact value < 0
		}
		return -1
	}
	// Smallest magnitude step at the caller's scale.
	z.form = finite
	z.neg = neg
	prec := int64(z.effPrec())
	one := [1]uint64{1}
	z.mant = z.mant.Shl(one[:], uint(prec-1))
	z.exp = exp2 + 1
	if neg {
		return -1
	}
	return 1
}
