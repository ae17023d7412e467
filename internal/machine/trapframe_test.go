package machine

import (
	"testing"

	"fpvm/internal/asm"
	"fpvm/internal/isa"
)

// trapLoopSrc rounds on every addsd, so with PE unmasked each iteration
// delivers one FP trap.
const trapLoopSrc = `
	mov r0, $0
	movsd f0, =1.0
loop:
	addsd f0, =0.1
	inc r0
	cmp r0, $1000
	jl loop
	halt
`

// skipTrap is a no-op FP trap handler: it clears the sticky flags and
// resumes past the faulting instruction without emulating it.
func skipTrap(f *TrapFrame) error {
	f.M.MXCSR.ClearFlags()
	f.M.Advance(f.Inst)
	return nil
}

// skipPatch is the trap-and-patch analog of skipTrap.
func skipPatch(f *TrapFrame) (bool, error) {
	f.M.Advance(f.Inst)
	return true, nil
}

// newTrapLoop returns a machine loaded with trapLoopSrc and an arm function
// that resets it and installs either the FP trap handler (PE unmasked) or a
// patch at the loop's addsd.
func newTrapLoop(tb testing.TB, patched bool) (*Machine, func()) {
	tb.Helper()
	prog := asm.MustAssemble(trapLoopSrc)
	m, err := NewSized(prog, nil, 64<<10)
	if err != nil {
		tb.Fatal(err)
	}
	var site uint64
	for _, in := range m.Insts() {
		if in.Op == isa.OpAddsd {
			site = in.Addr
		}
	}
	arm := func() {
		if err := m.Reset(prog, nil, 0); err != nil {
			tb.Fatal(err)
		}
		if patched {
			m.SetPatch(site, skipPatch)
		} else {
			m.MXCSR.SetMasks(0)
			m.FPTrap = skipTrap
		}
	}
	return m, arm
}

// TestTrapDeliveryAllocationFree pins the machine-owned frame contract: once
// a machine has delivered at a depth, every later FP-trap delivery and every
// patch entry at that depth allocates nothing.
func TestTrapDeliveryAllocationFree(t *testing.T) {
	for _, patched := range []bool{false, true} {
		m, arm := newTrapLoop(t, patched)
		arm()
		if err := m.Run(0); err != nil { // warm: the depth-0 frame
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			arm()
			if err := m.Run(0); err != nil {
				t.Fatal(err)
			}
		})
		entries := m.Stats.FPTraps + m.Stats.PatchInvokes
		if entries != 1000 {
			t.Fatalf("patched=%v: %d deliveries and patch entries per run, want 1000", patched, entries)
		}
		if allocs != 0 {
			t.Errorf("patched=%v: %v allocs per run of %d entries, want 0", patched, allocs, entries)
		}
	}
}

// TestNestedDeliveryKeepsOuterFrame: a handler that executes an instruction
// raising a second trap gets that trap delivered on the next depth's frame,
// and its own frame is intact when the nested handler returns.
func TestNestedDeliveryKeepsOuterFrame(t *testing.T) {
	prog := asm.MustAssemble(`
	trapc $7
	halt
	callext $3
`)
	m, err := NewSized(prog, nil, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	callext, _ := m.InstAt(prog.Entry + uint64(m.Insts()[0].Len+m.Insts()[1].Len))
	var inner *TrapFrame
	m.ExternalTrap = func(f *TrapFrame) error {
		inner = f
		if f.Cause != CauseExternalCall || f.Site != 3 {
			t.Errorf("nested frame: cause %v site %d, want external-call site 3", f.Cause, f.Site)
		}
		return nil
	}
	outerRuns := 0
	m.CorrectnessTrap = func(f *TrapFrame) error {
		outerRuns++
		rip := f.M.RIP
		if err := f.M.ExecMasked(callext); err != nil {
			return err
		}
		f.M.RIP = rip
		if inner == nil || inner == f {
			t.Fatalf("nested delivery reused the outer frame (inner %p, outer %p)", inner, f)
		}
		if f.Cause != CauseCorrectness || f.Site != 7 || f.Inst.Op != isa.OpTrapc || f.Idx != 0 {
			t.Errorf("outer frame clobbered: cause %v site %d op %v idx %d", f.Cause, f.Site, f.Inst.Op, f.Idx)
		}
		return nil
	}
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if outerRuns != 1 || m.Stats.CorrectTraps != 1 || m.Stats.ExtCallTraps != 1 {
		t.Errorf("outer handler ran %d times; %d correctness and %d external traps, want 1 each",
			outerRuns, m.Stats.CorrectTraps, m.Stats.ExtCallTraps)
	}
	if m.depth != 0 {
		t.Errorf("delivery depth %d after the run, want 0", m.depth)
	}
}
