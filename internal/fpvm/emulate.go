package fpvm

import (
	"fpvm/internal/arith"
	"fpvm/internal/faultinject"
	"fpvm/internal/fpu"
	"fpvm/internal/isa"
	"fpvm/internal/machine"
	"fpvm/internal/telemetry"
)

// kindRunners dispatches a decoded instruction to its per-kind emulation
// body. The table is shared by the interpreter (emulate) and superblock
// re-entry in runTrace, which skips decode and bind but runs the same body.
var kindRunners = [...]func(*VM, *machine.Machine, *decodedInst) error{
	kindArith:   (*VM).runArith,
	kindCompare: (*VM).runCompare,
	kindToInt:   (*VM).runToInt,
	kindFromInt: (*VM).runFromInt,
	kindMove:    (*VM).runMove,
}

// emulate executes one decoded instruction in the alternative arithmetic
// system and retires it: results are boxed into the destination, compares
// write RFLAGS, conversions cross the IEEE/shadow boundary, and RIP
// advances past the instruction. This is §4.1's emulator: one scalar
// function per abstract operation, invoked once per vector lane. It is
// called both for the faulting instruction of a trap and for every
// instruction coalesced into the same delivery by sequence emulation.
func (vm *VM) emulate(m *machine.Machine, d *decodedInst) error {
	if j := vm.inject; j != nil && j.Fire(faultinject.SeamEmulate, d.inst.Addr) {
		return degradeFault(telemetry.DegradeEmulate, errInjected)
	}
	vm.Stats.Cycles.Emulate += vm.costs.EmulateBase
	m.Cycles += vm.costs.EmulateBase

	if err := kindRunners[d.kind](vm, m, d); err != nil {
		return err
	}
	m.Advance(d.inst)
	return nil
}

// runArith emulates an FP arithmetic instruction: one Sys.Apply per lane,
// results boxed and retired atomically.
func (vm *VM) runArith(m *machine.Machine, d *decodedInst) error {
	// Lane results are buffered and written only after every lane has
	// computed (the same atomic retire the native executor performs), so
	// a degradable fault on lane 1 leaves the destination — which is
	// also a source for binary ops — untouched for the degradation
	// engine's native re-execution.
	var results [2]uint64
	err := vm.computeLanes(m, d, &results)
	vm.nroots = 0
	if err != nil {
		return err
	}
	for lane := 0; lane < d.lanes; lane++ {
		if err := m.WriteOperandFP(d.dst, lane, results[lane]); err != nil {
			return err
		}
	}
	return nil
}

// computeLanes computes an arithmetic instruction's lane results into arena
// cells and their boxes into results. Each finished lane's key is rooted
// (vm.roots) until runArith writes the boxes back, so a collection that a
// later lane's allocation triggers cannot sweep — and hand that lane — an
// earlier lane's cell.
func (vm *VM) computeLanes(m *machine.Machine, d *decodedInst, results *[2]uint64) error {
	// The per-VM scratch buffer keeps the hot path allocation-free (the
	// seed allocated a fresh []arith.Value per lane per trap).
	args := &vm.scratch
	for lane := 0; lane < d.lanes; lane++ {
		for i, s := range d.srcs {
			bits, err := vm.readFP(m, s, lane)
			if err != nil {
				return err
			}
			args[i] = vm.value(bits, i)
		}
		vm.Stats.Emulated++
		opCycles := vm.Sys.OpCycles(d.aop)
		vm.Stats.Cycles.Emulate += opCycles
		m.Cycles += opCycles
		key, bits, spare, err := vm.allocCell()
		if err != nil {
			return err
		}
		vm.Arena.Set(key, vm.Sys.Apply(spare, d.aop, args[0], args[1], args[2]))
		results[lane] = bits
		vm.roots[lane] = key
		vm.nroots = lane + 1
	}
	return nil
}

// runCompare emulates ucomisd/comisd: the shadow comparison writes RFLAGS.
func (vm *VM) runCompare(m *machine.Machine, d *decodedInst) error {
	abits, err := vm.readFP(m, d.srcs[0], 0)
	if err != nil {
		return err
	}
	bbits, err := vm.readFP(m, d.srcs[1], 0)
	if err != nil {
		return err
	}
	a, b := vm.value(abits, 0), vm.value(bbits, 1)
	vm.Stats.Emulated++
	cmpCycles := vm.Sys.OpCycles(arith.OpSub) // comparisons cost like a subtract
	vm.Stats.Cycles.Emulate += cmpCycles
	m.Cycles += cmpCycles
	ord, unordered := vm.Sys.Compare(a, b)
	switch {
	case unordered:
		m.SetCompareFlags(true, true, true)
	case ord > 0:
		m.SetCompareFlags(false, false, false)
	case ord < 0:
		m.SetCompareFlags(false, false, true)
	default:
		m.SetCompareFlags(true, false, false)
	}
	return nil
}

// runToInt emulates cvtsd2si/cvttsd2si: shadow → integer conversion.
func (vm *VM) runToInt(m *machine.Machine, d *decodedInst) error {
	bits, err := vm.readFP(m, d.srcs[0], 0)
	if err != nil {
		return err
	}
	v := vm.value(bits, 0)
	vm.Stats.Emulated++
	rc := m.MXCSR.RC()
	if d.truncate {
		rc = fpu.RCZero
	}
	i, ok := vm.Sys.ToInt64(v, rc)
	if !ok {
		i = -1 << 63 // integer indefinite, as the hardware would produce
	}
	return m.WriteOperandInt(d.dst, i)
}

// runFromInt emulates cvtsi2sd: integer → shadow conversion.
func (vm *VM) runFromInt(m *machine.Machine, d *decodedInst) error {
	iv, err := m.ReadOperandInt(d.srcs[0])
	if err != nil {
		return err
	}
	vm.Stats.Emulated++
	key, bits, spare, err := vm.allocCell()
	if err != nil {
		return err
	}
	vm.Arena.Set(key, vm.Sys.FromInt64(spare, iv))
	return m.WriteOperandFP(d.dst, 0, bits)
}

// runMove emulates movsd/movapd. Moves never fault and carry no arithmetic:
// the handler transports the raw (possibly NaN-boxed) bits exactly as the
// hardware would, so a coalesced run continues through register/memory
// shuffling. Mirrors Machine.execFPMove: movsd from memory zeroes the upper
// destination lane; movapd copies both lanes.
func (vm *VM) runMove(m *machine.Machine, d *decodedInst) error {
	if d.lanes == 1 {
		bits, err := vm.readFP(m, d.srcs[0], 0)
		if err != nil {
			return err
		}
		if d.dst.Kind == isa.KindFPReg && d.srcs[0].Kind == isa.KindMem {
			if err := m.WriteOperandFP(d.dst, 1, 0); err != nil {
				return err
			}
		}
		return m.WriteOperandFP(d.dst, 0, bits)
	}
	for lane := 0; lane < 2; lane++ {
		bits, err := vm.readFP(m, d.srcs[0], lane)
		if err != nil {
			return err
		}
		if err := m.WriteOperandFP(d.dst, lane, bits); err != nil {
			return err
		}
	}
	return nil
}

// readFP reads one FP operand lane for the emulator. Memory operands cross
// the guest-memory seam, where the fault injector can force a degradable
// access failure; with no injector attached this is a plain read behind one
// nil compare.
func (vm *VM) readFP(m *machine.Machine, o isa.Operand, lane int) (uint64, error) {
	if j := vm.inject; j != nil && o.Kind == isa.KindMem && j.Fire(faultinject.SeamMemAccess, vm.injectPC) {
		return 0, degradeFault(telemetry.DegradeMem, errInjected)
	}
	return m.ReadOperandFP(o, lane)
}
