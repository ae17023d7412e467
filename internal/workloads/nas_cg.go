package workloads

import (
	"fmt"
	"math"
)

// cgSource generates a conjugate-gradient solve on a random symmetric
// diagonally-dominant sparse matrix in CSR form — the NAS CG kernel. The
// inner loops are dense with FP multiply-adds and the sparse gather mixes
// integer index loads with FP value loads, which is why CG shows the
// largest slowdowns in Figure 12.
func cgSource(n, rowNNZ, iters int, seed uint64) string {
	g := newLCG(seed)
	var rowptr, colidx []int64
	var avals []float64
	rowptr = append(rowptr, 0)
	for i := 0; i < n; i++ {
		// Off-diagonal entries at deterministic pseudorandom columns,
		// plus the diagonal, kept diagonally dominant for SPD-ish behavior.
		cols := map[int]float64{}
		for k := 0; k < rowNNZ-1; k++ {
			c := int(g.next() % uint64(n))
			if c == i {
				continue
			}
			cols[c] = g.float64n() - 0.5
		}
		// Sum in ascending column order: map iteration order is random,
		// and float addition is not associative, so any other order would
		// change the diagonal — and the program image — between processes.
		var offSum float64
		for c := 0; c < n; c++ {
			if v, ok := cols[c]; ok {
				offSum += math.Abs(v)
			}
		}
		cols[i] = offSum + 4.0 + g.float64n()
		// Emit in ascending column order for CSR realism.
		for c := 0; c < n; c++ {
			if v, ok := cols[c]; ok {
				colidx = append(colidx, int64(c))
				avals = append(avals, v)
			}
		}
		rowptr = append(rowptr, int64(len(colidx)))
	}

	data := ".data\n"
	data += i64Data("rowptr", rowptr)
	data += i64Data("colidx", colidx)
	data += f64Data("avals", avals)
	data += fmt.Sprintf("xv: .zero %d\npv: .zero %d\nrv: .zero %d\nqv: .zero %d\n",
		8*n, 8*n, 8*n, 8*n)
	data += "rho: .f64 0.0\n"

	code := fmt.Sprintf(`
.text
	; initialize x=0, r=p=b=1; rho = r.r = n
	mov r1, $0
init:
	movsd f0, =0.0
	movsd [xv+r1*8], f0
	movsd f1, =1.0
	movsd [pv+r1*8], f1
	movsd [rv+r1*8], f1
	inc r1
	cmp r1, $%[1]d
	jl init
	; rho = r.r
	movsd f2, =0.0
	mov r1, $0
rr0:
	movsd f3, [rv+r1*8]
	fmaddsd f2, f3, f3
	inc r1
	cmp r1, $%[1]d
	jl rr0
	movsd [rho], f2

	mov r0, $0              ; CG iteration counter
cgiter:
	; ---- q = A p (CSR SpMV) ----
	mov r1, $0              ; row i
spmv:
	movsd f0, =0.0          ; accumulator
	mov r2, [rowptr+r1*8]   ; k = rowptr[i]
	mov r3, [rowptr+8+r1*8] ; end = rowptr[i+1]
gath:
	cmp r2, r3
	jge gdone
	mov r4, [colidx+r2*8]   ; col index (integer load)
	movsd f1, [avals+r2*8]  ; matrix value
	fmaddsd f0, f1, [pv+r4*8] ; acc += a * p[col] (gather operand)
	inc r2
	jmp gath
gdone:
	movsd [qv+r1*8], f0
	inc r1
	cmp r1, $%[1]d
	jl spmv
	; ---- alpha = rho / (p.q) ----
	movsd f4, =0.0
	mov r1, $0
pq:
	movsd f5, [pv+r1*8]
	movsd f6, [qv+r1*8]
	fmaddsd f4, f5, f6
	inc r1
	cmp r1, $%[1]d
	jl pq
	movsd f7, [rho]
	divsd f7, f4            ; alpha in f7
	; ---- x += alpha p; r -= alpha q ----
	mov r1, $0
upd:
	movsd f0, [pv+r1*8]
	mulsd f0, f7
	movsd f1, [xv+r1*8]
	addsd f1, f0
	movsd [xv+r1*8], f1
	movsd f2, [qv+r1*8]
	mulsd f2, f7
	movsd f3, [rv+r1*8]
	subsd f3, f2
	movsd [rv+r1*8], f3
	inc r1
	cmp r1, $%[1]d
	jl upd
	; ---- rho' = r.r; beta = rho'/rho; p = r + beta p ----
	movsd f8, =0.0
	mov r1, $0
rr:
	movsd f9, [rv+r1*8]
	fmaddsd f8, f9, f9
	inc r1
	cmp r1, $%[1]d
	jl rr
	movsd f10, f8
	divsd f10, [rho]        ; beta
	movsd [rho], f8
	mov r1, $0
pup:
	movsd f0, [pv+r1*8]
	mulsd f0, f10
	addsd f0, [rv+r1*8]
	movsd [pv+r1*8], f0
	inc r1
	cmp r1, $%[1]d
	jl pup
	inc r0
	cmp r0, $%[2]d
	jl cgiter

	; output: residual norm and solution checksum
	movsd f0, [rho]
	sqrtsd f0, f0
	outf f0
	movsd f1, =0.0
	mov r1, $0
chk:
	movsd f2, [xv+r1*8]
	fmaddsd f1, f2, f2
	inc r1
	cmp r1, $%[1]d
	jl chk
	sqrtsd f1, f1
	outf f1
	halt
`, n, iters)
	return data + code
}

func init() {
	register(Workload{
		Name:        "NAS CG",
		Specifics:   "Class S",
		Description: "conjugate gradient, sparse SPD matrix n=200 (~7 nnz/row), 15 iterations",
		Build:       buildSrc("cg.S", cgSource(200, 8, 15, 12345)),
	})
	register(Workload{
		Name:        "NAS CG",
		Specifics:   "Class A",
		Description: "conjugate gradient, sparse SPD matrix n=600, 25 iterations",
		Build:       buildSrc("cg.A", cgSource(600, 8, 25, 6789)),
	})
}
