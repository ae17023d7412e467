// Package mpnat implements arbitrary-precision natural-number (unsigned
// integer) arithmetic on 64-bit limbs. It is the low-level kernel beneath
// package mpfr, playing the role GMP's mpn layer plays beneath GNU MPFR.
//
// A Nat is a little-endian limb slice: word i holds bits [64*i, 64*i+64) of
// the value. The canonical form has no trailing zero limbs; the zero value
// (nil or empty slice) represents 0.
//
// The arithmetic kernels follow math/big's destination-passing idiom:
//
//	z = z.Add(x, y)
//
// writes x + y into z's spare capacity and returns the canonical result,
// allocating only when z is too small (a nil z always allocates, which is
// what cold callers want). Operands are never modified. Aliasing rules:
//
//   - Add, Sub, AddWord, SubWord, MulWord, Shl, Shr and Set compute in
//     place: z may be the same slice as x or y.
//   - Mul, Sqr, DivMod and SqrtRem cannot work in place. When a destination
//     shares storage with an operand (or, for the two-result kernels, with
//     the other destination) it is replaced by a fresh buffer, so the call
//     stays correct and only loses the reuse.
//
// Any other overlap — z a shifted view into x's array — is not supported.
// A reused destination may hold arbitrary stale limbs and more capacity
// than the result needs; every kernel writes each limb of its result.
package mpnat

import (
	"math"
	"math/bits"
)

// Nat is an arbitrary-precision natural number stored as little-endian
// 64-bit limbs. The zero value represents the number 0.
type Nat []uint64

// Norm returns x with trailing zero limbs removed (canonical form).
func (x Nat) Norm() Nat {
	n := len(x)
	for n > 0 && x[n-1] == 0 {
		n--
	}
	return x[:n]
}

// IsZero reports whether x represents 0.
func (x Nat) IsZero() bool {
	for _, w := range x {
		if w != 0 {
			return false
		}
	}
	return true
}

// BitLen returns the number of bits in x; the bit length of 0 is 0.
func (x Nat) BitLen() int {
	x = x.Norm()
	if len(x) == 0 {
		return 0
	}
	return (len(x)-1)*64 + bits.Len64(x[len(x)-1])
}

// Bit returns bit i of x (0 or 1). Bits beyond BitLen are 0.
func (x Nat) Bit(i int) uint {
	if i < 0 || i/64 >= len(x) {
		return 0
	}
	return uint(x[i/64]>>(i%64)) & 1
}

// Clone returns an independent copy of x.
func (x Nat) Clone() Nat {
	if len(x) == 0 {
		return nil
	}
	z := make(Nat, len(x))
	copy(z, x)
	return z
}

// Uint64 returns the low 64 bits of x and whether x fits in a uint64.
func (x Nat) Uint64() (uint64, bool) {
	x = x.Norm()
	switch len(x) {
	case 0:
		return 0, true
	case 1:
		return x[0], true
	default:
		return x[0], false
	}
}

// Cmp compares x and y, returning -1, 0, or +1.
func (x Nat) Cmp(y Nat) int {
	x, y = x.Norm(), y.Norm()
	switch {
	case len(x) < len(y):
		return -1
	case len(x) > len(y):
		return 1
	}
	for i := len(x) - 1; i >= 0; i-- {
		switch {
		case x[i] < y[i]:
			return -1
		case x[i] > y[i]:
			return 1
		}
	}
	return 0
}

// make returns z resized to n limbs, reusing z's array when it is large
// enough. The limbs' contents are unspecified. A fresh array gets a little
// headroom so a later carry limb does not force another allocation.
func (z Nat) make(n int) Nat {
	if n <= cap(z) {
		return z[:n]
	}
	const headroom = 4
	return make(Nat, n, n+headroom)
}

// alias reports whether x and y share a backing array (math/big's test: two
// slices of one array end at the same capacity boundary).
func alias(x, y Nat) bool {
	return cap(x) > 0 && cap(y) > 0 && &x[0:cap(x)][cap(x)-1] == &y[0:cap(y)][cap(y)-1]
}

// setWord sets z to w.
func (z Nat) setWord(w uint64) Nat {
	if w == 0 {
		return z[:0]
	}
	z = z.make(1)
	z[0] = w
	return z
}

// Set sets z to x and returns z.
func (z Nat) Set(x Nat) Nat {
	x = x.Norm()
	z = z.make(len(x))
	copy(z, x)
	return z
}

// Add sets z to x + y and returns z.
func (z Nat) Add(x, y Nat) Nat {
	x, y = x.Norm(), y.Norm()
	if len(x) < len(y) {
		x, y = y, x
	}
	m, n := len(x), len(y)
	z = z.make(m)
	var c uint64
	for i := 0; i < n; i++ {
		z[i], c = bits.Add64(x[i], y[i], c)
	}
	for i := n; i < m; i++ {
		z[i], c = bits.Add64(x[i], 0, c)
	}
	if c != 0 {
		z = append(z, c)
	}
	return z
}

// AddWord sets z to x + w and returns z.
func (z Nat) AddWord(x Nat, w uint64) Nat {
	x = x.Norm()
	m := len(x)
	if m == 0 {
		return z.setWord(w)
	}
	z = z.make(m)
	c := w
	for i := 0; i < m; i++ {
		z[i], c = bits.Add64(x[i], c, 0)
	}
	if c != 0 {
		z = append(z, c)
	}
	return z
}

// Sub sets z to x - y and returns z. It panics if y > x (natural numbers
// cannot go negative); z's contents are then unspecified.
func (z Nat) Sub(x, y Nat) Nat {
	x, y = x.Norm(), y.Norm()
	m, n := len(x), len(y)
	if m < n {
		panic("mpnat: Sub underflow")
	}
	z = z.make(m)
	var b uint64
	for i := 0; i < n; i++ {
		z[i], b = bits.Sub64(x[i], y[i], b)
	}
	for i := n; i < m; i++ {
		z[i], b = bits.Sub64(x[i], 0, b)
	}
	if b != 0 {
		panic("mpnat: Sub underflow")
	}
	return z.Norm()
}

// SubWord sets z to x - w and returns z. It panics if w > x.
func (z Nat) SubWord(x Nat, w uint64) Nat {
	x = x.Norm()
	m := len(x)
	if m == 0 {
		if w != 0 {
			panic("mpnat: Sub underflow")
		}
		return z[:0]
	}
	z = z.make(m)
	b := w
	for i := 0; i < m; i++ {
		z[i], b = bits.Sub64(x[i], b, 0)
	}
	if b != 0 {
		panic("mpnat: Sub underflow")
	}
	return z.Norm()
}

// shlVU sets z[:len(x)] = x << s for 0 <= s < 64 and returns the bits
// shifted out of the top limb. It walks downward, so z may be x.
func shlVU(z, x Nat, s uint) uint64 {
	n := len(x)
	if n == 0 {
		return 0
	}
	if s == 0 {
		copy(z, x)
		return 0
	}
	out := x[n-1] >> (64 - s)
	for i := n - 1; i > 0; i-- {
		z[i] = x[i]<<s | x[i-1]>>(64-s)
	}
	z[0] = x[0] << s
	return out
}

// shrVU sets z[:len(x)] = x >> s for 0 <= s < 64, discarding the bits
// shifted out of the bottom. It walks upward, so z may be x.
func shrVU(z, x Nat, s uint) {
	n := len(x)
	if n == 0 {
		return
	}
	if s == 0 {
		copy(z, x)
		return
	}
	for i := 0; i < n-1; i++ {
		z[i] = x[i]>>s | x[i+1]<<(64-s)
	}
	z[n-1] = x[n-1] >> s
}

// Shl sets z to x << s and returns z.
func (z Nat) Shl(x Nat, s uint) Nat {
	x = x.Norm()
	m := len(x)
	if m == 0 {
		return z[:0]
	}
	limbs := int(s / 64)
	z = z.make(m + limbs)
	// Move x up by whole limbs while shifting the bits (shlVU walks
	// downward, so this is safe in place), then clear the vacated limbs.
	top := shlVU(z[limbs:], x, s%64)
	clear(z[:limbs])
	if top != 0 {
		z = append(z, top)
	}
	return z
}

// Shr sets z to x >> s (bits shifted out are discarded) and returns z.
func (z Nat) Shr(x Nat, s uint) Nat {
	x = x.Norm()
	limbs := int(s / 64)
	if limbs >= len(x) {
		return z[:0]
	}
	x = x[limbs:]
	z = z.make(len(x))
	shrVU(z, x, s%64)
	return z.Norm()
}

// karatsubaThreshold is the limb count above which Mul switches from
// schoolbook multiplication to Karatsuba. Chosen empirically; the exact
// value only matters for large-precision performance, not correctness.
const karatsubaThreshold = 24

// Mul sets z to x * y and returns z. A z that shares storage with x or y is
// replaced by a fresh buffer. Karatsuba-sized operands (thousands of bits)
// allocate their partial products; the schoolbook range does not.
func (z Nat) Mul(x, y Nat) Nat {
	x, y = x.Norm(), y.Norm()
	if len(x) == 0 || len(y) == 0 {
		return z[:0]
	}
	if alias(z, x) || alias(z, y) {
		z = nil
	}
	if len(x) < karatsubaThreshold || len(y) < karatsubaThreshold {
		return z.mulSchoolbook(x, y)
	}
	return z.mulKaratsuba(x, y)
}

// MulWord sets z to x * w and returns z.
func (z Nat) MulWord(x Nat, w uint64) Nat {
	x = x.Norm()
	if len(x) == 0 || w == 0 {
		return z[:0]
	}
	z = z.make(len(x))
	var carry uint64
	for i, xi := range x {
		hi, lo := bits.Mul64(xi, w)
		var c uint64
		z[i], c = bits.Add64(lo, carry, 0)
		carry = hi + c
	}
	if carry != 0 {
		z = append(z, carry)
	}
	return z
}

// mulAddVWW adds x * w into z[:len(x)] and returns the carry out.
func mulAddVWW(z, x Nat, w uint64) uint64 {
	var carry uint64
	for j, xj := range x {
		hi, lo := bits.Mul64(w, xj)
		s, c1 := bits.Add64(lo, z[j], 0)
		s, c2 := bits.Add64(s, carry, 0)
		z[j] = s
		carry = hi + c1 + c2
	}
	return carry
}

func (z Nat) mulSchoolbook(x, y Nat) Nat {
	z = z.make(len(x) + len(y))
	clear(z)
	for i, xi := range x {
		if xi != 0 {
			z[i+len(y)] = mulAddVWW(z[i:], y, xi)
		}
	}
	return z.Norm()
}

// karatsubaSplit splits x at limb half into canonical low and high parts.
func karatsubaSplit(x Nat, half int) (lo, hi Nat) {
	if len(x) <= half {
		return x, nil
	}
	return x[:half].Norm(), x[half:]
}

func (z Nat) mulKaratsuba(x, y Nat) Nat {
	half := (max(len(x), len(y)) + 1) / 2
	x0, x1 := karatsubaSplit(x, half)
	y0, y1 := karatsubaSplit(y, half)

	z0 := Nat(nil).Mul(x0, y0) // low product
	z2 := Nat(nil).Mul(x1, y1) // high product
	// z1 = (x0+x1)(y0+y1) - z0 - z2
	z1 := Nat(nil).Mul(Nat(nil).Add(x0, x1), Nat(nil).Add(y0, y1))
	z1 = z1.Sub(z1, z0)
	z1 = z1.Sub(z1, z2)
	return z.karatsubaCombine(z0, z1, z2, half)
}

// karatsubaCombine sets z = z0 + z1·B^half + z2·B^(2·half).
func (z Nat) karatsubaCombine(z0, z1, z2 Nat, half int) Nat {
	t := Nat(nil).Shl(z1, uint(64*half))
	z = z.Add(z0, t)
	t = t.Shl(z2, uint(128*half))
	return z.Add(z, t)
}

// Sqr sets z to x * x using a dedicated squaring kernel: the cross partial
// products x[i]*x[j] (i != j) are symmetric, so they are computed once and
// doubled, roughly halving the multiply work relative to Mul(x, x). GMP's
// mpn layer makes the same specialization (mpn_sqr), and mpfr's
// exponentiation loops lean on it heavily. A z that shares storage with x
// is replaced by a fresh buffer.
func (z Nat) Sqr(x Nat) Nat {
	x = x.Norm()
	if len(x) == 0 {
		return z[:0]
	}
	if alias(z, x) {
		z = nil
	}
	if len(x) < karatsubaThreshold {
		return z.sqrSchoolbook(x)
	}
	return z.sqrKaratsuba(x)
}

// sqrSchoolbook computes x² via the triangle-and-double decomposition:
//
//	x² = 2 * Σ_{i<j} x[i]x[j]·B^(i+j)  +  Σ_i x[i]²·B^(2i)
//
// Only the strictly-upper triangle of cross products is materialized; the
// doubling is a one-bit shift of the accumulated triangle; the diagonal of
// 128-bit squares is added last.
func (z Nat) sqrSchoolbook(x Nat) Nat {
	n := len(x)
	z = z.make(2 * n)
	clear(z)

	// Upper triangle: z += x[i] * x[j] at limb offset i+j for every j > i.
	for i := 0; i < n-1; i++ {
		if xi := x[i]; xi != 0 {
			z[i+n] = mulAddVWW(z[2*i+1:], x[i+1:], xi)
		}
	}

	// Double the triangle: z <<= 1 in place. The triangle is below
	// B^(2n-1), so nothing shifts out of the top limb.
	shlVU(z, z, 1)

	// Diagonal: z += Σ x[i]² at limb offset 2i.
	var carry uint64
	for i := 0; i < n; i++ {
		hi, lo := bits.Mul64(x[i], x[i])
		var c uint64
		z[2*i], c = bits.Add64(z[2*i], lo, carry)
		z[2*i+1], carry = bits.Add64(z[2*i+1], hi, c)
	}
	// carry can only propagate into limbs above 2n-1 if the square
	// overflowed 2n limbs, which it cannot: (B^n - 1)² < B^(2n).
	return z.Norm()
}

// sqrKaratsuba recurses with three squarings instead of three general
// multiplies: (x1·B + x0)² = x1²·B² + ((x0+x1)² − x0² − x1²)·B + x0².
func (z Nat) sqrKaratsuba(x Nat) Nat {
	half := (len(x) + 1) / 2
	x0, x1 := karatsubaSplit(x, half)

	z0 := Nat(nil).Sqr(x0)
	z2 := Nat(nil).Sqr(x1)
	z1 := Nat(nil).Sqr(Nat(nil).Add(x0, x1))
	z1 = z1.Sub(z1, z0)
	z1 = z1.Sub(z1, z2)
	return z.karatsubaCombine(z0, z1, z2, half)
}

// DivMod sets z to the quotient ⌊x/y⌋ and r to the remainder x mod y and
// returns both. It panics when y is 0.
//
// r's capacity doubles as the working storage of the long division: Knuth's
// Algorithm D runs on normalized copies of x and y laid out in r's array,
// and the remainder is denormalized in place at its front. A warm r (one
// returned by an earlier DivMod of the same size) therefore makes the call
// allocation-free. z and r must not share storage with each other, x or y;
// a destination that does is replaced by a fresh buffer.
func (z Nat) DivMod(r, x, y Nat) (q, rem Nat) {
	x, y = x.Norm(), y.Norm()
	if len(y) == 0 {
		panic("mpnat: division by zero")
	}
	if alias(z, x) || alias(z, y) {
		z = nil
	}
	if alias(r, x) || alias(r, y) || alias(r, z) {
		r = nil
	}
	if x.Cmp(y) < 0 {
		return z[:0], r.Set(x)
	}
	if len(y) == 1 {
		var w uint64
		z, w = z.divWord(x, y[0])
		return z, r.setWord(w)
	}
	return z.divKnuth(r, x, y)
}

// divWord sets z to x / w and returns it with the remainder.
func (z Nat) divWord(x Nat, w uint64) (Nat, uint64) {
	z = z.make(len(x))
	var r uint64
	for i := len(x) - 1; i >= 0; i-- {
		z[i], r = bits.Div64(r, x[i], w)
	}
	return z.Norm(), r
}

// divKnuth implements Knuth's Algorithm D (TAOCP vol. 2, 4.3.1) for
// multi-limb division; len(v) >= 2 and u >= v.
func (z Nat) divKnuth(r, u, v Nat) (Nat, Nat) {
	n := len(v)
	m := len(u) - n

	// D1: normalize so the top limb of v has its high bit set. The
	// normalized dividend un (with the zero guard limb the algorithm needs
	// above it) and divisor vn live side by side in r's array.
	shift := uint(bits.LeadingZeros64(v[n-1]))
	r = r.make(len(u) + 1 + n)
	un, vn := r[:len(u)+1], v
	if shift != 0 {
		vn = r[len(u)+1:]
		shlVU(vn, v, shift)
	}
	un[len(u)] = shlVU(un, u, shift)
	q := z.make(m + 1)

	vtop, vnext := vn[n-1], vn[n-2]
	for j := m; j >= 0; j-- {
		// D3: estimate qhat.
		qhat := ^uint64(0)
		if u2, u1 := un[j+n], un[j+n-1]; u2 < vtop {
			var rhat uint64
			qhat, rhat = bits.Div64(u2, u1, vtop)
			// Refine using the second-highest divisor limb.
			u0 := un[j+n-2]
			for {
				hi, lo := bits.Mul64(qhat, vnext)
				if hi < rhat || (hi == rhat && lo <= u0) {
					break
				}
				qhat--
				var c uint64
				if rhat, c = bits.Add64(rhat, vtop, 0); c != 0 {
					break // rhat overflowed base; qhat is now small enough
				}
			}
		}
		// D4: multiply and subtract un[j..j+n] -= qhat * vn.
		var borrow, mulCarry uint64
		for i := 0; i < n; i++ {
			hi, lo := bits.Mul64(qhat, vn[i])
			lo, c := bits.Add64(lo, mulCarry, 0)
			mulCarry = hi + c
			un[j+i], borrow = bits.Sub64(un[j+i], lo, borrow)
		}
		var b uint64
		un[j+n], b = bits.Sub64(un[j+n], mulCarry, borrow)
		// D5/D6: if we subtracted too much, add back one vn.
		if b != 0 {
			qhat--
			var carry uint64
			for i := 0; i < n; i++ {
				un[j+i], carry = bits.Add64(un[j+i], vn[i], carry)
			}
			un[j+n] += carry
		}
		q[j] = qhat
	}
	// D8: denormalize the remainder in place at the front of r.
	rem := un[:n]
	shrVU(rem, rem, shift)
	return q.Norm(), rem.Norm()
}

// TrailingZeros returns the number of trailing zero bits in x; it returns 0
// for x == 0.
func (x Nat) TrailingZeros() int {
	x = x.Norm()
	for i, w := range x {
		if w != 0 {
			return i*64 + bits.TrailingZeros64(w)
		}
	}
	return 0
}

// window returns the 64 bits of x starting at bit pos.
func (x Nat) window(pos int) uint64 {
	i, off := pos/64, uint(pos%64)
	if i >= len(x) {
		return 0
	}
	w := x[i] >> off
	if off != 0 && i+1 < len(x) {
		w |= x[i+1] << (64 - off)
	}
	return w
}

// SqrtRem sets z to ⌊√x⌋ and r to the remainder x − z² and returns both.
// A zero remainder means x is a perfect square.
//
// The root is Newton's integer iteration g ← ⌊(g + ⌊x/g⌋)/2⌋ started from
// above, which never drops below ⌊√x⌋ and stops exactly there. The start
// g₀ ≥ √x comes from x's top bits (see sqrtSeed) and is already within a
// factor 1+2^-58 of the root. Each step squares the relative error
// (e' ≤ e²/2), so about log2(bits/58) steps — two multi-limb divides at 200
// bits, against ten from the old power-of-two start — bring g within one of
// the root; a final square-and-compare settles the last unit and yields the
// remainder.
//
// r's capacity holds the Newton quotients and the division's working
// storage, so a warm z and r make the call allocation-free. z and r must not
// share storage with each other or x; a destination that does is replaced
// by a fresh buffer.
func (z Nat) SqrtRem(r, x Nat) (root, rem Nat) {
	x = x.Norm()
	if alias(z, x) {
		z = nil
	}
	if alias(r, x) || alias(r, z) {
		r = nil
	}
	bl := x.BitLen()
	if bl <= 64 {
		w, _ := x.Uint64()
		s := isqrt64(w)
		return z.setWord(s), r.setWord(w - s*s)
	}
	seed, k, prec := sqrtSeed(x, bl)
	g := z.setWord(seed)
	g = g.Shl(g, uint(k))

	// Carve r's array into the quotient buffer q and the division's working
	// storage d (normalized dividend and divisor). Three-index slicing caps
	// q, so the two never share a capacity boundary.
	qn := len(x) + 1
	buf := r.make(qn + len(x) + 1 + len(g))
	q, d := buf[0:0:qn], buf[qn:qn]
	for rootBits := (bl + 1) / 2; prec <= rootBits; prec = 2*prec + 1 {
		q, d = q.DivMod(d, x, g)
		if q.Cmp(g) >= 0 {
			break // g ≤ x/g: g is already ⌊√x⌋
		}
		g = g.Add(g, q)
		g = g.Shr(g, 1)
	}
	// g ≥ ⌊√x⌋ throughout and now g < √x + 1: step down at most once.
	sq := buf[:0].Sqr(g)
	if sq.Cmp(x) > 0 {
		g = g.SubWord(g, 1)
		sq = sq.Sqr(g)
	}
	return g, sq.Sub(x, sq)
}

// sqrtSeed returns a Newton start for √x, x of bl > 64 bits: g₀ = seed·2^k
// with g₀ ≥ √x and g₀ < √x·(1 + 2^-prec).
//
// Write x = t·2^(2k) + low with t the top bits of x. Since x < (t+1)·2^(2k),
// any s with s > √t, i.e. s ≥ ⌊√t⌋+1, gives g₀ = s·2^k ≥ √x. For t of 61–62
// bits, s = isqrt(t)+1 ≥ 2^30 is within 1+2^-30. When x is wide enough, t
// takes 123–124 bits instead and one Newton step runs in 128-by-64-bit
// arithmetic first: from s₀ = (isqrt(t_hi)+1)·2^32 > √t (relative error
// under 2^-29), s₁ = ⌊(s₀ + ⌊t/s₀⌋)/2⌋ ≥ ⌊√t⌋ has error under 2^-59, and
// s₁+1 ≥ 2^61 keeps it under 2^-58.
func sqrtSeed(x Nat, bl int) (seed uint64, k, prec int) {
	if bl < 125 {
		k = (bl - 61) / 2
		return isqrt64(x.window(2*k)) + 1, k, 30
	}
	k = (bl - 123) / 2
	hi, lo := x.window(2*k+64), x.window(2*k) // t = hi·2^64 + lo, hi < 2^60
	s0 := (isqrt64(hi) + 1) << 32             // > hi·2^64, so the quotient fits
	q, _ := bits.Div64(hi, lo, s0)
	return (s0+q)/2 + 1, k, 58
}

// isqrt64 returns ⌊√v⌋ for any 64-bit v.
func isqrt64(v uint64) uint64 {
	r := uint64(math.Sqrt(float64(v)))
	// The float root can be off by one either way after rounding.
	for r > 0 && sqAbove(r, v) {
		r--
	}
	for !sqAbove(r+1, v) {
		r++
	}
	return r
}

// sqAbove reports whether r² > v, without overflow.
func sqAbove(r, v uint64) bool {
	hi, lo := bits.Mul64(r, r)
	return hi != 0 || lo > v
}
