package mpnat

import (
	"encoding/binary"
	"math/big"
	"testing"
)

// natFromBytes reads little-endian 64-bit limbs (a short tail is zero
// padded), capped at 64 limbs so Karatsuba sizes are reachable but cheap.
func natFromBytes(b []byte) Nat {
	if len(b) > 64*8 {
		b = b[:64*8]
	}
	var z Nat
	for len(b) > 0 {
		var w [8]byte
		n := copy(w[:], b)
		b = b[n:]
		z = append(z, binary.LittleEndian.Uint64(w[:]))
	}
	return z.Norm()
}

// dest builds a destination for one kernel call. Mode 0 is nil (the
// allocating path); mode 1 is a recycled buffer: more capacity than any
// result needs and every limb, visible or not, stale.
func dest(mode uint8, n int) Nat {
	if mode%2 == 0 {
		return nil
	}
	z := make(Nat, n%7, n+130)
	full := z[:cap(z)]
	for i := range full {
		full[i] = 0xdeadbeefcafef00d ^ uint64(i)*0x9e3779b97f4a7c15
	}
	return z
}

// inPlace copies x into a buffer with spare, stale capacity, so a kernel
// called with z == x both reads and writes it.
func inPlace(x Nat) Nat {
	z := dest(1, len(x)+8)[:0]
	return append(z, x...)
}

// FuzzMPNat checks every destination-passing kernel against math/big, with
// nil, recycled and in-place destinations, and checks that operands the
// destination does not alias are left untouched.
func FuzzMPNat(f *testing.F) {
	f.Add([]byte{1}, []byte{1}, uint8(0), uint16(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, []byte{3, 0, 0, 0, 0, 0, 0, 0x80, 1}, uint8(1), uint16(65))
	f.Fuzz(func(t *testing.T, xb, yb []byte, mode uint8, shift uint16) {
		x, y := natFromBytes(xb), natFromBytes(yb)
		bx, by := toBig(x), toBig(y)
		s := uint(shift % 600)
		w := uint64(shift)*0x9e3779b97f4a7c15 + uint64(mode)
		zmode := mode & 1
		size := int(mode>>1) + len(x)

		check := func(op string, got Nat, want *big.Int) {
			t.Helper()
			if len(got) > 0 && got[len(got)-1] == 0 {
				t.Fatalf("%s: result %v not canonical", op, got)
			}
			if toBig(got).Cmp(want) != 0 {
				t.Fatalf("%s(x=%v, y=%v, s=%d, w=%#x, mode=%d) = %v, want %v", op, bx, by, s, w, mode, toBig(got), want)
			}
		}
		intact := func(op string) {
			t.Helper()
			if toBig(x).Cmp(bx) != 0 || toBig(y).Cmp(by) != 0 {
				t.Fatalf("%s modified an operand it does not alias", op)
			}
		}
		// two-operand kernels: fresh/recycled, z == x, z == y.
		binop := func(op string, fn func(z, x, y Nat) Nat, want *big.Int) {
			t.Helper()
			check(op, fn(dest(zmode, size), x, y), want)
			intact(op)
			zx := inPlace(x)
			check(op+" z==x", fn(zx, zx, y), want)
			zy := inPlace(y)
			check(op+" z==y", fn(zy, x, zy), want)
			intact(op)
		}
		unary := func(op string, fn func(z, x Nat) Nat, want *big.Int) {
			t.Helper()
			check(op, fn(dest(zmode, size), x), want)
			intact(op)
			zx := inPlace(x)
			check(op+" z==x", fn(zx, zx), want)
		}

		binop("Add", Nat.Add, new(big.Int).Add(bx, by))
		binop("Mul", Nat.Mul, new(big.Int).Mul(bx, by))
		if bx.Cmp(by) >= 0 {
			binop("Sub", Nat.Sub, new(big.Int).Sub(bx, by))
		}
		unary("Set", Nat.Set, bx)
		unary("Sqr", Nat.Sqr, new(big.Int).Mul(bx, bx))
		unary("Shl", func(z, x Nat) Nat { return z.Shl(x, s) }, new(big.Int).Lsh(bx, s))
		unary("Shr", func(z, x Nat) Nat { return z.Shr(x, s) }, new(big.Int).Rsh(bx, s))
		bw := new(big.Int).SetUint64(w)
		unary("AddWord", func(z, x Nat) Nat { return z.AddWord(x, w) }, new(big.Int).Add(bx, bw))
		unary("MulWord", func(z, x Nat) Nat { return z.MulWord(x, w) }, new(big.Int).Mul(bx, bw))
		if bx.Cmp(bw) >= 0 {
			unary("SubWord", func(z, x Nat) Nat { return z.SubWord(x, w) }, new(big.Int).Sub(bx, bw))
		}

		// Two-result kernels: recycled destinations, then every aliasing a
		// caller could get wrong (quotient or remainder buffer shared with
		// an operand or with each other) must still give the right answer.
		if len(y) > 0 {
			wq, wr := new(big.Int).QuoRem(bx, by, new(big.Int))
			divs := []struct {
				name string
				q, r Nat
			}{
				{"fresh", dest(zmode, size), dest(zmode, size+3)},
				{"q==x", x, nil}, {"r==x", nil, x}, {"q==y", y, nil}, {"r==y", nil, y},
			}
			shared := dest(1, size)
			divs = append(divs, struct {
				name string
				q, r Nat
			}{"q==r", shared, shared})
			for _, d := range divs {
				q, r := d.q.DivMod(d.r, x, y)
				check("DivMod quotient "+d.name, q, wq)
				check("DivMod remainder "+d.name, r, wr)
				intact("DivMod " + d.name)
			}
		}
		wroot := new(big.Int).Sqrt(bx)
		wrem := new(big.Int).Sub(bx, new(big.Int).Mul(wroot, wroot))
		shared := dest(1, size)
		for _, d := range []struct {
			name string
			z, r Nat
		}{
			{"fresh", dest(zmode, size), dest(zmode, size+5)},
			{"z==x", x, nil}, {"r==x", nil, x}, {"z==r", shared, shared},
		} {
			root, rem := d.z.SqrtRem(d.r, x)
			check("SqrtRem root "+d.name, root, wroot)
			check("SqrtRem remainder "+d.name, rem, wrem)
			intact("SqrtRem " + d.name)
		}
	})
}

// TestWarmKernelsAllocationFree pins the point of the destination-passing
// API: at MPFR-200 operand sizes, warm destinations make every kernel on
// the emulation path allocation-free.
func TestWarmKernelsAllocationFree(t *testing.T) {
	x := Nat{0x0123456789abcdef, 0xfedcba9876543210, 0x0f1e2d3c4b5a6978, 0x80000000deadbeef}
	y := Nat{0x1111111111111111, 0x2222222222222222, 0x3333333333333333, 0x0000000100000000}
	wide := Nat(nil).Shl(x, 203) // a Div numerator / Sqrt operand
	var z, q, r, root, rem Nat
	ops := map[string]func(){
		"Add":     func() { z = z.Add(x, y) },
		"Sub":     func() { z = z.Sub(x, y) },
		"AddWord": func() { z = z.AddWord(x, 1) },
		"Shl":     func() { z = z.Shl(x, 77) },
		"Shr":     func() { z = z.Shr(x, 77) },
		"Mul":     func() { z = z.Mul(x, y) },
		"Sqr":     func() { z = z.Sqr(x) },
		"DivMod":  func() { q, r = q.DivMod(r, wide, y) },
		"SqrtRem": func() { root, rem = root.SqrtRem(rem, wide) },
	}
	for name, op := range ops {
		op() // warm the destinations
		if n := testing.AllocsPerRun(100, op); n != 0 {
			t.Errorf("%s: %v allocs per warm call, want 0", name, n)
		}
	}
}
