// Package posit implements posit arithmetic (Gustafson's unum type III) for
// configurable width and exponent size, playing the role of the Universal
// Numbers Library in the FPVM paper's alternative arithmetic lineup (§4.3).
//
// A posit<nbits, es> is stored in the low nbits of a uint64 in two's
// complement. The encoding is sign, then a variable-length regime run, then
// up to es exponent bits, then fraction bits. Because posit encodings are
// monotonic in the represented value, round-to-nearest-even can be performed
// directly on the bit pattern: truncate, inspect guard/sticky, and add one
// to move to the adjacent posit.
//
// Arithmetic is computed exactly (or truncated-with-sticky) in package
// mpfr and rounded once to the posit lattice, so every operation is
// correctly rounded per the posit standard, including saturation to
// maxpos/minpos rather than overflow to infinity.
package posit

import (
	"fmt"
	"math"

	"fpvm/internal/mpfr"
	"fpvm/internal/mpnat"
)

// Posit is a posit bit pattern. Only the low Config.NBits bits are
// significant; they are kept zero-extended (not sign-extended).
type Posit uint64

// Config selects a posit format. Standard formats are posit<8,0>,
// posit<16,1>, posit<32,2>, and posit<64,3>; any NBits in [3, 64] and
// ES in [0, 5] is supported.
type Config struct {
	NBits uint // total width in bits, 3..64
	ES    uint // exponent field size, 0..5
}

// Standard posit formats.
var (
	Posit8  = Config{NBits: 8, ES: 0}
	Posit16 = Config{NBits: 16, ES: 1}
	Posit32 = Config{NBits: 32, ES: 2}
	Posit64 = Config{NBits: 64, ES: 3}
)

func (c Config) String() string { return fmt.Sprintf("posit<%d,%d>", c.NBits, c.ES) }

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.NBits < 3 || c.NBits > 64 {
		return fmt.Errorf("posit: NBits %d out of range [3,64]", c.NBits)
	}
	if c.ES > 5 {
		return fmt.Errorf("posit: ES %d out of range [0,5]", c.ES)
	}
	return nil
}

func (c Config) mask() uint64 { return (uint64(1) << c.NBits) - 1 }

// Zero returns the posit representing 0.
func (c Config) Zero() Posit { return 0 }

// NaR returns the Not-a-Real pattern (100...0), posit's single exception
// value, standing in for every IEEE NaN and infinity.
func (c Config) NaR() Posit { return Posit(uint64(1) << (c.NBits - 1)) }

// MaxPos returns the largest positive posit (011...1).
func (c Config) MaxPos() Posit { return Posit(uint64(1)<<(c.NBits-1) - 1) }

// MinPos returns the smallest positive posit (000...1).
func (c Config) MinPos() Posit { return 1 }

// IsNaR reports whether p is the NaR pattern.
func (c Config) IsNaR(p Posit) bool { return p == c.NaR() }

// IsZero reports whether p is zero.
func (c Config) IsZero(p Posit) bool { return p == 0 }

// Neg returns -p (two's complement negation). Neg(NaR) = NaR, Neg(0) = 0.
func (c Config) Neg(p Posit) Posit {
	return Posit((-uint64(p)) & c.mask())
}

// Abs returns |p|.
func (c Config) Abs(p Posit) Posit {
	if c.signBit(p) && !c.IsNaR(p) {
		return c.Neg(p)
	}
	return p
}

func (c Config) signBit(p Posit) bool {
	return uint64(p)>>(c.NBits-1)&1 == 1
}

// signExtend returns p as a signed integer for ordering comparisons.
func (c Config) signExtend(p Posit) int64 {
	shift := 64 - c.NBits
	return int64(uint64(p)<<shift) >> shift
}

// Cmp compares two posits, returning -1, 0, or +1. Per the posit standard,
// comparison is exactly signed-integer comparison of the bit patterns, with
// NaR ordering below every real value.
func (c Config) Cmp(a, b Posit) int {
	ia, ib := c.signExtend(a), c.signExtend(b)
	switch {
	case ia < ib:
		return -1
	case ia > ib:
		return 1
	default:
		return 0
	}
}

// decoded carries the fields of a finite nonzero posit.
type decoded struct {
	neg     bool
	scale   int64  // power-of-two scale of the leading fraction bit
	frac    uint64 // fraction bits, without the hidden leading 1
	fracLen uint   // number of fraction bits present
}

// decode splits a nonzero, non-NaR posit into its fields.
func (c Config) decode(p Posit) decoded {
	var d decoded
	bits := uint64(p) & c.mask()
	if c.signBit(p) {
		d.neg = true
		bits = (-bits) & c.mask()
	}
	// Drop the sign bit; remaining nbits-1 bits hold regime/exp/fraction.
	width := c.NBits - 1
	rem := bits & ((uint64(1) << width) - 1)

	// Regime: run of identical leading bits.
	lead := rem >> (width - 1) & 1
	runLen := uint(0)
	for i := int(width) - 1; i >= 0 && rem>>uint(i)&1 == lead; i-- {
		runLen++
	}
	var k int64
	if lead == 1 {
		k = int64(runLen) - 1
	} else {
		k = -int64(runLen)
	}
	// Consume the run plus its terminator (if present).
	consumed := runLen
	if consumed < width {
		consumed++ // the opposite-valued terminator bit
	}
	rest := width - consumed

	// Exponent: next up to es bits, zero-padded when truncated.
	var e uint64
	expBits := c.ES
	if rest < expBits {
		expBits = rest
	}
	if expBits > 0 {
		e = rem >> (rest - expBits) & ((uint64(1) << expBits) - 1)
	}
	e <<= c.ES - expBits // pad truncated exponent with zeros

	// Fraction: whatever remains.
	fracLen := rest - expBits
	frac := rem & ((uint64(1) << fracLen) - 1)

	d.scale = k<<c.ES + int64(e)
	d.frac = frac
	d.fracLen = fracLen
	return d
}

// ToMPFR sets dst to the exact value of p. NaR becomes NaN. dst should have
// at least NBits precision for exactness.
func (c Config) ToMPFR(p Posit, dst *mpfr.Float) {
	switch {
	case c.IsZero(p):
		dst.SetZero(1)
		return
	case c.IsNaR(p):
		dst.SetNaN()
		return
	}
	d := c.decode(p)
	// value = ±(1.frac) × 2^scale = ±(2^fracLen + frac) × 2^(scale−fracLen)
	m := uint64(1)<<d.fracLen | d.frac
	if d.neg {
		dst.SetInt64(-int64(m), mpfr.RoundNearestEven)
	} else {
		dst.SetUint64(m, mpfr.RoundNearestEven)
	}
	dst.Mul2Exp(dst, d.scale-int64(d.fracLen), mpfr.RoundNearestEven)
}

// ToFloat64 converts p to the nearest float64.
func (c Config) ToFloat64(p Posit) float64 {
	f := mpfr.New(c.NBits + 2)
	c.ToMPFR(p, f)
	return f.Float64(mpfr.RoundNearestEven)
}

// FromFloat64 converts v to the nearest posit (NaN and ±Inf become NaR).
func (c Config) FromFloat64(v float64) Posit {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return c.NaR()
	}
	f := mpfr.New(64)
	f.SetFloat64(v, mpfr.RoundNearestEven)
	return c.FromMPFR(f, false)
}

// FromMPFR rounds f to the nearest posit (ties to even pattern, saturating
// at maxpos/minpos). sticky indicates that f is a truncated-toward-zero
// approximation with nonzero discarded bits below its mantissa, as produced
// by an mpfr operation in RoundTowardZero whose ternary value was nonzero.
func (c Config) FromMPFR(f *mpfr.Float, sticky bool) Posit {
	if f.IsNaN() || f.IsInf() {
		return c.NaR()
	}
	if f.IsZero() {
		if sticky {
			// A nonzero exact value truncated to zero: rounds to ±minpos.
			if f.Signbit() {
				return c.Neg(c.MinPos())
			}
			return c.MinPos()
		}
		return 0
	}

	mant, exp, neg := f.MantExp()
	scale := exp - 1 // leading mantissa bit has weight 2^(exp-1)

	// Fast saturation to maxpos/minpos: beyond these scales no rounding
	// decision can reach an interior posit.
	maxScale := int64(c.NBits-2) << c.ES
	if scale > maxScale {
		return c.signed(c.MaxPos(), neg)
	}
	if scale < -maxScale {
		return c.signed(c.MinPos(), neg)
	}

	// Split the scale into regime and exponent fields.
	k := scale >> c.ES
	e := uint64(scale - k<<c.ES)

	// Assemble the unrounded pattern [0][regime][exp][fraction…] into a Nat,
	// tracking the total length. The fraction is the mantissa without its
	// leading bit.
	fracLen := uint(mant.BitLen() - 1)
	frac := mpnat.Nat(nil).Sub(mant, mpnat.Nat(nil).Shl(mpnat.Nat{1}, fracLen)) // drop hidden bit

	var pattern mpnat.Nat
	var length uint
	if k >= 0 {
		// k+1 ones then a zero.
		runLen := uint(k) + 1
		pattern = mpnat.Nat(nil).Shl(mpnat.Nat{1}, runLen)
		pattern = pattern.SubWord(pattern, 1) // 1s
		pattern = pattern.Shl(pattern, 1)     // terminator 0
		length = runLen + 1
	} else {
		// -k zeros then a one.
		pattern = mpnat.Nat{1}
		length = uint(-k) + 1
	}
	// Exponent bits.
	pattern = pattern.Shl(pattern, c.ES)
	pattern = pattern.AddWord(pattern, e)
	length += c.ES
	// Fraction bits.
	pattern = pattern.Shl(pattern, fracLen)
	pattern = pattern.Add(pattern, frac)
	length += fracLen
	// Sign bit position: total value bits available are NBits-1.
	avail := c.NBits - 1

	var bits uint64
	if length <= avail {
		// Everything fits; shift into place, no rounding (sticky bits are
		// strictly below the last kept bit and the guard bit is zero).
		shifted := mpnat.Nat(nil).Shl(pattern, avail-length)
		bits, _ = shifted.Uint64()
	} else {
		cut := length - avail
		kept := mpnat.Nat(nil).Shr(pattern, cut)
		bits, _ = kept.Uint64()
		guard := pattern.Bit(int(cut)-1) == 1
		stickyLow := sticky
		if !stickyLow {
			for i := 0; i < int(cut)-1; i++ {
				if pattern.Bit(i) == 1 {
					stickyLow = true
					break
				}
			}
		}
		// Round to nearest, ties to even, directly on the pattern: posit
		// encodings are monotonic, so +1 yields the next posit.
		if guard && (stickyLow || bits&1 == 1) {
			bits++
		}
	}
	// Clamp: rounding cannot produce zero for a nonzero value, nor cross
	// into the NaR/sign half.
	if bits == 0 {
		bits = 1 // minpos
	}
	if bits > uint64(c.MaxPos()) {
		bits = uint64(c.MaxPos())
	}
	return c.signed(Posit(bits), neg)
}

func (c Config) signed(p Posit, neg bool) Posit {
	if neg {
		return c.Neg(p)
	}
	return p
}

// workPrec is the mpfr precision used for intermediate computations: wide
// enough that truncation-plus-sticky captures the exact result relative to
// any posit fraction.
func (c Config) workPrec() uint { return 2*c.NBits + 16 }

// binop computes op into a fresh working float from the exact values of a
// and b and rounds to the posit lattice.
func (c Config) binop(a, b Posit, op func(z, x, y *mpfr.Float) int) Posit {
	if c.IsNaR(a) || c.IsNaR(b) {
		return c.NaR()
	}
	x := mpfr.New(c.NBits + 2)
	y := mpfr.New(c.NBits + 2)
	c.ToMPFR(a, x)
	c.ToMPFR(b, y)
	z := mpfr.New(c.workPrec())
	t := op(z, x, y)
	if z.IsNaN() || z.IsInf() {
		return c.NaR()
	}
	return c.FromMPFR(z, t != 0)
}

// Add returns the correctly rounded posit sum a + b.
func (c Config) Add(a, b Posit) Posit {
	return c.binop(a, b, func(z, x, y *mpfr.Float) int {
		return z.Add(x, y, mpfr.RoundTowardZero)
	})
}

// Sub returns the correctly rounded posit difference a − b.
func (c Config) Sub(a, b Posit) Posit {
	return c.binop(a, b, func(z, x, y *mpfr.Float) int {
		return z.Sub(x, y, mpfr.RoundTowardZero)
	})
}

// Mul returns the correctly rounded posit product a × b.
func (c Config) Mul(a, b Posit) Posit {
	return c.binop(a, b, func(z, x, y *mpfr.Float) int {
		return z.Mul(x, y, mpfr.RoundTowardZero)
	})
}

// Div returns the correctly rounded posit quotient a / b; x/0 is NaR.
func (c Config) Div(a, b Posit) Posit {
	if c.IsZero(b) {
		return c.NaR() // posit division by zero is NaR, not infinity
	}
	return c.binop(a, b, func(z, x, y *mpfr.Float) int {
		return z.Div(x, y, mpfr.RoundTowardZero)
	})
}

// Sqrt returns the correctly rounded posit square root; negative → NaR.
func (c Config) Sqrt(a Posit) Posit {
	if c.IsNaR(a) || (c.signBit(a) && !c.IsZero(a)) {
		return c.NaR()
	}
	x := mpfr.New(c.NBits + 2)
	c.ToMPFR(a, x)
	z := mpfr.New(c.workPrec())
	t := z.Sqrt(x, mpfr.RoundTowardZero)
	return c.FromMPFR(z, t != 0)
}

// FMA returns the correctly rounded a×b + d with a single rounding.
func (c Config) FMA(a, b, d Posit) Posit {
	if c.IsNaR(a) || c.IsNaR(b) || c.IsNaR(d) {
		return c.NaR()
	}
	x := mpfr.New(c.NBits + 2)
	y := mpfr.New(c.NBits + 2)
	w := mpfr.New(c.NBits + 2)
	c.ToMPFR(a, x)
	c.ToMPFR(b, y)
	c.ToMPFR(d, w)
	z := mpfr.New(c.workPrec())
	t := z.FMA(x, y, w, mpfr.RoundTowardZero)
	if z.IsNaN() || z.IsInf() {
		return c.NaR()
	}
	return c.FromMPFR(z, t != 0)
}

// String renders p through float64 for diagnostics.
func (c Config) Format(p Posit) string {
	switch {
	case c.IsNaR(p):
		return "NaR"
	case c.IsZero(p):
		return "0"
	}
	return fmt.Sprintf("%g", c.ToFloat64(p))
}
