package fpvm

import (
	"fmt"
	"testing"
)

// packedLoopSrc runs a packed multiply-add recurrence in which every lane
// operation rounds, so each packed instruction traps and allocates two
// shadow cells, then prints both lanes.
const packedLoopSrc = `
.data
v: .f64 1.1, 2.2
k: .f64 1.0000001, 0.9999999
d: .f64 0.011, 0.022
out: .zero 16
.text
	movapd f0, [v]
	movapd f1, [k]
	movapd f2, [d]
	mov r0, $0
loop:
	mulpd f0, f1
	addpd f0, f2
	inc r0
	cmp r0, $200
	jl loop
	movapd [out], f0
	movsd f3, [out]
	movsd f4, [out+8]
	outf f3
	outf f4
	halt
`

// TestPackedLanesSurviveSoftCapGC is the regression test for a packed
// instruction's lane results being swept mid-instruction. Lane results are
// buffered until every lane has computed, so lane 0's new cell is not yet
// in guest state when lane 1's allocation reaches the arena soft cap and
// collects; unless the pending lane is rooted, the pass frees it and the
// allocator hands the same key to lane 1, and lane 0 reads back lane 1's
// value (or a universal NaN). Soft caps of 3–5 cells, with the epoch
// collector out of the way, put that collection on lane 1 repeatedly on
// every retirement tier.
func TestPackedLanesSurviveSoftCapGC(t *testing.T) {
	want, _ := runNative(t, packedLoopSrc)
	tiers := []struct {
		name string
		cfg  Config
	}{
		{"interp", Config{}},
		{"seqemu", Config{MaxSequenceLen: 16}},
		{"jit", Config{MaxSequenceLen: 16, JITThreshold: 4}},
	}
	for _, tier := range tiers {
		for _, softCap := range []int{3, 4, 5} {
			t.Run(fmt.Sprintf("%s/softcap=%d", tier.name, softCap), func(t *testing.T) {
				cfg := tier.cfg
				cfg.GCEveryNAllocs = 1 << 62
				cfg.ArenaSoftCap = softCap
				got, _, vm := runSB(t, packedLoopSrc, cfg, nil)
				if got != want {
					t.Fatalf("output %q, native %q", got, want)
				}
				if vm.Stats.GC.Passes == 0 {
					t.Fatal("the soft cap never triggered a collection")
				}
			})
		}
	}
}
