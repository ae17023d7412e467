package mpfr

import (
	"sync"

	"fpvm/internal/mpnat"
)

// Constants are computed in fixed point (a Nat scaled by 2^wp) and cached
// per working precision. FPVM emulates millions of trig instructions at one
// fixed precision, so the cache hit rate is effectively 100% after startup,
// mirroring how MPFR caches its own constants.

type constCache struct {
	mu   sync.Mutex
	bits uint      // fractional bits of the cached value
	val  mpnat.Nat // value * 2^bits
}

var (
	piCache  constCache
	ln2Cache constCache
)

// get returns the cached constant as val·2^-frac with frac >= bits,
// recomputing it when the cache holds fewer fractional bits. The returned
// Nat is never modified afterwards (a recompute installs a fresh one), so
// callers may read it after the lock is released.
func (c *constCache) get(bits uint, compute func(uint) mpnat.Nat) (val mpnat.Nat, frac uint) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.bits < bits {
		// Compute with a little headroom so nearby precisions reuse the cache.
		wp := bits + 64
		c.val = compute(wp)
		c.bits = wp
	}
	return c.val, c.bits
}

// Pi sets z to π rounded to z's precision and returns the ternary value.
func (z *Float) Pi(rnd RoundingMode) int {
	wp := uint(z.effPrec()) + 32
	fx, frac := piCache.get(wp, computePi)
	return z.setRounded(false, fx, -int64(frac), true, rnd)
}

// Ln2 sets z to ln(2) rounded to z's precision and returns the ternary value.
func (z *Float) Ln2(rnd RoundingMode) int {
	wp := uint(z.effPrec()) + 32
	fx, frac := ln2Cache.get(wp, computeLn2)
	return z.setRounded(false, fx, -int64(frac), true, rnd)
}

// computePi returns π * 2^wp (truncated) using Machin's formula
// π = 16·atan(1/5) − 4·atan(1/239).
func computePi(wp uint) mpnat.Nat {
	// Guard bits cover series truncation and the subtraction.
	g := wp + 32
	a5 := atanRecipFixed(5, g)
	a239 := atanRecipFixed(239, g)
	pi := mpnat.Nat(nil).Sub(mpnat.Nat(nil).MulWord(a5, 16), mpnat.Nat(nil).MulWord(a239, 4))
	return mpnat.Nat(nil).Shr(pi, 32)
}

// computeLn2 returns ln(2) * 2^wp (truncated) using
// ln 2 = 2·atanh(1/3) = 2·Σ 1/((2k+1)·3^(2k+1)).
func computeLn2(wp uint) mpnat.Nat {
	g := wp + 32
	ln2 := mpnat.Nat(nil).Shl(atanhRecipFixed(3, g), 1)
	return mpnat.Nat(nil).Shr(ln2, 32)
}

// atanRecipFixed returns atan(1/m) * 2^bits (truncated) for integer m >= 2
// with m*m < 2^32, via the alternating series Σ (−1)^k / ((2k+1)·m^(2k+1)).
func atanRecipFixed(m uint64, bits uint) mpnat.Nat {
	one := mpnat.Nat(nil).Shl(mpnat.Nat{1}, bits)
	pow, _ := mpnat.Nat(nil).DivMod(nil, one, mpnat.Nat{m}) // 1/m in fixed point
	m2 := m * m
	sum := pow.Clone()
	for k := uint64(1); ; k++ {
		pow, _ = mpnat.Nat(nil).DivMod(nil, pow, mpnat.Nat{m2})
		if pow.IsZero() {
			break
		}
		term, _ := mpnat.Nat(nil).DivMod(nil, pow, mpnat.Nat{2*k + 1})
		if term.IsZero() {
			break
		}
		if k%2 == 1 {
			sum = sum.Sub(sum, term)
		} else {
			sum = sum.Add(sum, term)
		}
	}
	return sum
}

// atanhRecipFixed returns atanh(1/m) * 2^bits (truncated) for integer m >= 2
// with m*m < 2^32, via Σ 1/((2k+1)·m^(2k+1)).
func atanhRecipFixed(m uint64, bits uint) mpnat.Nat {
	one := mpnat.Nat(nil).Shl(mpnat.Nat{1}, bits)
	pow, _ := mpnat.Nat(nil).DivMod(nil, one, mpnat.Nat{m})
	m2 := m * m
	sum := pow.Clone()
	for k := uint64(1); ; k++ {
		pow, _ = mpnat.Nat(nil).DivMod(nil, pow, mpnat.Nat{m2})
		if pow.IsZero() {
			break
		}
		term, _ := mpnat.Nat(nil).DivMod(nil, pow, mpnat.Nat{2*k + 1})
		if term.IsZero() {
			break
		}
		sum = sum.Add(sum, term)
	}
	return sum
}
