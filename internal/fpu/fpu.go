// Package fpu implements the software floating point unit of the machine
// simulator: IEEE 754 binary64 operations with full x64 %mxcsr semantics —
// per-event sticky condition flags, parallel exception masks, and precise
// fault signaling. This is the "hardware" whose exceptions drive FPVM's
// trap-and-emulate engine (§4.1 of the paper).
//
// Inexact (PE) detection uses error-free transforms: 2Sum residuals for
// add/sub, FMA residuals for mul/div/sqrt, Boldo–Muller ErrFma for fmadd,
// falling back to exact big.Float comparison on subnormal edge cases where
// the residual itself can underflow.
package fpu

import (
	"math"
	"math/big"
)

// Flags is the set of IEEE exception condition flags, with the same bit
// positions as the low six bits of x64's %mxcsr.
type Flags uint32

// Exception flag bits (matching %mxcsr bits 0–5).
const (
	FlagInvalid   Flags = 1 << 0 // IE: sNaN operand, 0/0, Inf−Inf, ...
	FlagDenormal  Flags = 1 << 1 // DE: subnormal source operand
	FlagDivZero   Flags = 1 << 2 // ZE: finite / 0
	FlagOverflow  Flags = 1 << 3 // OE: rounded magnitude above max finite
	FlagUnderflow Flags = 1 << 4 // UE: tiny and inexact result
	FlagInexact   Flags = 1 << 5 // PE: result was rounded
)

// All covers every exception flag.
const FlagAll Flags = FlagInvalid | FlagDenormal | FlagDivZero |
	FlagOverflow | FlagUnderflow | FlagInexact

func (f Flags) String() string {
	if f == 0 {
		return "-"
	}
	s := ""
	add := func(bit Flags, name string) {
		if f&bit != 0 {
			if s != "" {
				s += "|"
			}
			s += name
		}
	}
	add(FlagInvalid, "IE")
	add(FlagDenormal, "DE")
	add(FlagDivZero, "ZE")
	add(FlagOverflow, "OE")
	add(FlagUnderflow, "UE")
	add(FlagInexact, "PE")
	return s
}

// MXCSR models the x64 media control and status register: sticky flags in
// bits 0–5, exception masks in bits 7–12, rounding control in bits 13–14.
type MXCSR uint32

// Field layout constants.
const (
	mxcsrMaskShift = 7
	mxcsrRCShift   = 13
)

// RoundingControl values for MXCSR bits 13–14.
type RoundingControl uint32

const (
	RCNearest RoundingControl = iota // round to nearest even
	RCDown                           // toward −Inf
	RCUp                             // toward +Inf
	RCZero                           // truncate
)

// DefaultMXCSR is the power-on value: all exceptions masked, RNE.
const DefaultMXCSR MXCSR = MXCSR(FlagAll) << mxcsrMaskShift

// AllExceptionsUnmasked returns an MXCSR with every exception unmasked,
// which is how FPVM arms the hardware so rounding/NaN events trap.
func AllExceptionsUnmasked() MXCSR { return 0 }

// Flags returns the sticky exception flags.
func (m MXCSR) Flags() Flags { return Flags(m) & FlagAll }

// SetFlags ORs new sticky flags in (they are sticky: software must clear).
func (m *MXCSR) SetFlags(f Flags) { *m |= MXCSR(f & FlagAll) }

// ClearFlags zeroes the sticky flags, as FPVM does before resuming.
func (m *MXCSR) ClearFlags() { *m &^= MXCSR(FlagAll) }

// Masks returns the exception mask bits as a Flags set; a set bit means the
// corresponding exception is masked (does not trap).
func (m MXCSR) Masks() Flags { return Flags(m>>mxcsrMaskShift) & FlagAll }

// SetMasks replaces the exception mask bits.
func (m *MXCSR) SetMasks(f Flags) {
	*m = (*m &^ (MXCSR(FlagAll) << mxcsrMaskShift)) | MXCSR(f&FlagAll)<<mxcsrMaskShift
}

// Unmasked returns the subset of f that would trap under this MXCSR.
func (m MXCSR) Unmasked(f Flags) Flags { return f & FlagAll &^ m.Masks() }

// RC returns the rounding control field.
func (m MXCSR) RC() RoundingControl {
	return RoundingControl(m>>mxcsrRCShift) & 3
}

// SetRC sets the rounding control field.
func (m *MXCSR) SetRC(rc RoundingControl) {
	*m = (*m &^ (3 << mxcsrRCShift)) | MXCSR(rc&3)<<mxcsrRCShift
}

// --- NaN classification -----------------------------------------------------

const (
	expMask   = uint64(0x7FF) << 52
	quietBit  = uint64(1) << 51
	fracMask  = uint64(1)<<52 - 1
	signMask  = uint64(1) << 63
	qnanBits  = uint64(0x7FF8000000000000) // default quiet NaN ("indefinite")
	indefInt  = int64(math.MinInt64)       // integer indefinite for cvt
	maxFinite = math.MaxFloat64
)

// IsNaN reports whether bits encode any NaN.
func IsNaN(bits uint64) bool {
	return bits&expMask == expMask && bits&fracMask != 0
}

// IsSNaN reports whether bits encode a signaling NaN (quiet bit clear).
func IsSNaN(bits uint64) bool {
	return IsNaN(bits) && bits&quietBit == 0
}

// IsQNaN reports whether bits encode a quiet NaN.
func IsQNaN(bits uint64) bool {
	return IsNaN(bits) && bits&quietBit != 0
}

// IsSubnormal reports whether bits encode a nonzero subnormal.
func IsSubnormal(bits uint64) bool {
	return bits&expMask == 0 && bits&fracMask != 0
}

// Quiet returns bits with the quiet bit set (the hardware's response when it
// must produce a NaN from a signaling input with IE masked).
func Quiet(bits uint64) uint64 { return bits | quietBit }

// QNaN returns the default quiet NaN bit pattern.
func QNaN() uint64 { return qnanBits }

func isSNaNf(v float64) bool { return IsSNaN(math.Float64bits(v)) }
func isNaNf(v float64) bool  { return math.IsNaN(v) }
func isSubn(v float64) bool  { return IsSubnormal(math.Float64bits(v)) }
func isInff(v float64) bool  { return math.IsInf(v, 0) }

// operandFlags returns the DE/IE flags contributed by source operands.
func operandFlags(vals ...float64) Flags {
	var f Flags
	for _, v := range vals {
		if isSubn(v) {
			f |= FlagDenormal
		}
		if isSNaNf(v) {
			f |= FlagInvalid
		}
	}
	return f
}

// propagateNaN returns the quieted NaN the hardware would produce from the
// given operands (x64 SSE prefers the first NaN source).
func propagateNaN(vals ...float64) float64 {
	for _, v := range vals {
		if isNaNf(v) {
			return math.Float64frombits(Quiet(math.Float64bits(v)))
		}
	}
	return math.Float64frombits(qnanBits)
}

// Result is the outcome of executing one scalar FP operation.
type Result struct {
	Value float64
	Flags Flags
}

// exactBig reports whether got exactly equals the value of the big.Float
// computation f (a slow path used only near subnormal boundaries).
func exactBig(got float64, exact *big.Float) bool {
	g := new(big.Float).SetPrec(200).SetFloat64(got)
	return g.Cmp(exact) == 0
}

// postFlags computes OE/UE/PE for a finite-input operation with rounded
// result r and a residual-based inexactness verdict.
func postFlags(r float64, inexact bool) Flags {
	var f Flags
	if isInff(r) {
		return FlagOverflow | FlagInexact
	}
	if inexact {
		f |= FlagInexact
		if r == 0 || isSubn(r) {
			f |= FlagUnderflow
		}
	}
	return f
}

// Add executes addsd.
func Add(a, b float64) Result {
	f := operandFlags(a, b)
	if isNaNf(a) || isNaNf(b) {
		return Result{propagateNaN(a, b), f}
	}
	if isInff(a) && isInff(b) && math.Signbit(a) != math.Signbit(b) {
		return Result{math.Float64frombits(qnanBits), f | FlagInvalid}
	}
	s := a + b
	if isInff(a) || isInff(b) {
		return Result{s, f}
	}
	return Result{s, f | postFlags(s, addInexact(a, b, s))}
}

// Sub executes subsd.
func Sub(a, b float64) Result {
	f := operandFlags(a, b)
	if isNaNf(a) || isNaNf(b) {
		return Result{propagateNaN(a, b), f}
	}
	if isInff(a) && isInff(b) && math.Signbit(a) == math.Signbit(b) {
		return Result{math.Float64frombits(qnanBits), f | FlagInvalid}
	}
	s := a - b
	if isInff(a) || isInff(b) {
		return Result{s, f}
	}
	return Result{s, f | postFlags(s, addInexact(a, -b, s))}
}

// addInexact reports whether s = RN(a+b) differs from a+b, using the 2Sum
// error term.
func addInexact(a, b, s float64) bool {
	if isInff(s) {
		return true
	}
	_, err := twoSum(a, b)
	return err != 0
}

// Mul executes mulsd.
func Mul(a, b float64) Result {
	f := operandFlags(a, b)
	if isNaNf(a) || isNaNf(b) {
		return Result{propagateNaN(a, b), f}
	}
	if (a == 0 && isInff(b)) || (b == 0 && isInff(a)) {
		return Result{math.Float64frombits(qnanBits), f | FlagInvalid}
	}
	p := a * b
	if isInff(a) || isInff(b) {
		return Result{p, f}
	}
	return Result{p, f | postFlags(p, mulInexact(a, b, p))}
}

func mulInexact(a, b, p float64) bool {
	if isInff(p) {
		return true
	}
	if p == 0 {
		return a != 0 && b != 0
	}
	if isSubn(p) {
		// The FMA residual can itself underflow to zero here; decide with
		// exact arithmetic instead.
		exact := new(big.Float).SetPrec(200)
		exact.Mul(new(big.Float).SetPrec(200).SetFloat64(a), new(big.Float).SetPrec(200).SetFloat64(b))
		return !exactBig(p, exact)
	}
	return math.FMA(a, b, -p) != 0
}

// Div executes divsd.
func Div(a, b float64) Result {
	f := operandFlags(a, b)
	if isNaNf(a) || isNaNf(b) {
		return Result{propagateNaN(a, b), f}
	}
	switch {
	case isInff(a) && isInff(b), a == 0 && b == 0:
		return Result{math.Float64frombits(qnanBits), f | FlagInvalid}
	case b == 0:
		return Result{math.Copysign(math.Inf(1), a) * math.Copysign(1, b), f | FlagDivZero}
	case isInff(a), isInff(b):
		return Result{a / b, f}
	}
	q := a / b
	return Result{q, f | postFlags(q, divInexact(a, b, q))}
}

func divInexact(a, b, q float64) bool {
	if isInff(q) {
		return true
	}
	if q == 0 {
		return a != 0
	}
	if isSubn(q) {
		exact := new(big.Float).SetPrec(200)
		exact.Quo(new(big.Float).SetPrec(200).SetFloat64(a), new(big.Float).SetPrec(200).SetFloat64(b))
		return !exactBig(q, exact)
	}
	return math.FMA(q, b, -a) != 0
}

// Sqrt executes sqrtsd.
func Sqrt(a float64) Result {
	f := operandFlags(a)
	if isNaNf(a) {
		return Result{propagateNaN(a), f}
	}
	if a < 0 {
		return Result{math.Float64frombits(qnanBits), f | FlagInvalid}
	}
	s := math.Sqrt(a) // exact per IEEE for ±0, +Inf
	if a == 0 || isInff(a) {
		return Result{s, f}
	}
	if math.FMA(s, s, -a) != 0 {
		f |= FlagInexact
	}
	return Result{s, f}
}

// Min executes minsd with x64 semantics: min(a,b) = a < b ? a : b, and any
// NaN (or equal-magnitude tie) yields the second operand.
func Min(a, b float64) Result {
	f := operandFlags(a, b)
	if isNaNf(a) || isNaNf(b) {
		return Result{b, f}
	}
	if a < b {
		return Result{a, f}
	}
	return Result{b, f}
}

// Max executes maxsd with x64 semantics.
func Max(a, b float64) Result {
	f := operandFlags(a, b)
	if isNaNf(a) || isNaNf(b) {
		return Result{b, f}
	}
	if a > b {
		return Result{a, f}
	}
	return Result{b, f}
}

// FMAdd executes a fused multiply-add: a*b + c with one rounding.
func FMAdd(a, b, c float64) Result {
	f := operandFlags(a, b, c)
	if isNaNf(a) || isNaNf(b) || isNaNf(c) {
		return Result{propagateNaN(a, b, c), f}
	}
	if (a == 0 && isInff(b)) || (b == 0 && isInff(a)) {
		return Result{math.Float64frombits(qnanBits), f | FlagInvalid}
	}
	r := math.FMA(a, b, c)
	if isNaNf(r) { // Inf − Inf inside the fma
		return Result{math.Float64frombits(qnanBits), f | FlagInvalid}
	}
	if isInff(a) || isInff(b) || isInff(c) {
		return Result{r, f}
	}
	return Result{r, f | postFlags(r, fmaInexact(a, b, c, r))}
}

// Exponent window of the FMA error-free transform. Below errFmaTiny the
// product's rounding error or the result can be subnormal, where the
// transform's error terms lose bits; above errFmaHuge an intermediate sum
// can overflow. Both bounds sit well inside the proven range.
const (
	errFmaTiny = 0x1p-960
	errFmaHuge = 0x1p1000
)

// fmaInexact reports whether r = RN(a*b + c) differs from the exact value,
// for finite a, b, c. Inside the transform's exponent window it runs
// Boldo–Muller ErrFma ("Exact and Approximated Error of the FMA", IEEE TC
// 2011): with TwoProd by FMA and two TwoSums, a*b + c = r + r2 + r3
// exactly, so r is exact iff r2 and r3 are both zero. Outside the window it
// decides with exact big.Float arithmetic.
func fmaInexact(a, b, c, r float64) bool {
	if isInff(r) {
		return true
	}
	u1 := float64(a * b)
	ar, au, ac := math.Abs(r), math.Abs(u1), math.Abs(c)
	tiny := (ar != 0 && ar < errFmaTiny) || (a != 0 && b != 0 && au < errFmaTiny)
	if tiny || ar > errFmaHuge || au > errFmaHuge || ac > errFmaHuge {
		return fmaInexactBig(a, b, c, r)
	}
	u2 := math.FMA(a, b, -u1) // TwoProd: a*b = u1 + u2
	a1, a2 := twoSum(c, u2)
	b1, b2 := twoSum(u1, a1)
	g := float64(b1-r) + b2
	r2 := g + a2 // Fast2Sum(g, a2)
	r3 := a2 - (r2 - g)
	return r2 != 0 || r3 != 0
}

// twoSum returns s = RN(x + y) and the exact rounding error e = x + y − s
// (Knuth's branch-free 2Sum).
func twoSum(x, y float64) (s, e float64) {
	s = x + y
	t := s - x
	e = (x - (s - t)) + (y - t)
	return s, e
}

// fmaInexactBig is fmaInexact's exact slow path. The product of two 53-bit
// significands is exact in 106 bits; the sum is carried at a precision
// spanning from the highest bit of either term to the lowest, so no addend,
// however far below the product, is rounded away.
func fmaInexactBig(a, b, c, r float64) bool {
	p := new(big.Float).SetPrec(106).SetFloat64(a)
	p.Mul(p, new(big.Float).SetFloat64(b))
	bc := new(big.Float).SetFloat64(c)
	hi, lo := 0, 0
	if p.Sign() != 0 {
		e := p.MantExp(nil)
		hi, lo = e, e-106
	}
	if c != 0 {
		_, e := math.Frexp(c)
		if p.Sign() == 0 {
			hi, lo = e, e-53
		} else {
			hi, lo = max(hi, e), min(lo, e-53)
		}
	}
	sum := new(big.Float).SetPrec(uint(hi-lo) + 2)
	sum.Add(p, bc)
	return new(big.Float).SetFloat64(r).Cmp(sum) != 0
}
