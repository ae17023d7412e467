package fpvm

import (
	"fpvm/internal/isa"
	"fpvm/internal/machine"
)

// The trace walker amortizes one trap delivery across a run of FP
// instructions. Figure 9 shows per-trap cost dominated by delivery (~1,000
// cycles of hardware dispatch plus ~2,600 of kernel signal path); §6 attacks
// that cost with cheaper delivery hardware. The orthogonal, software-only
// attack implemented here works on traces: a trace is the instruction at a
// trap site plus the straight-line run of FP work behind it, measured by
// traceEnd against one stop predicate. Both amortizing tiers retire a trace
// through runTrace, the one per-instruction retirement loop:
//
//   - sequence emulation walks the trace once through the decode cache, so a
//     basic block's worth of FP work pays for one trap instead of N (each
//     coalesced instruction costs a decode-cache probe + bind + emulate but
//     zero delivery);
//   - the trace JIT (superblock.go) translates the same trace once, caches
//     it behind a patch at the entry, and re-enters it on later visits with
//     no delivery, no decode and no bind.
//
// Telemetry, the sanitizer and fault injection therefore hook one loop.

// SeqLenBuckets is the number of buckets in Stats.SeqLenHist. Bucket
// boundaries are powers of two; SeqLenBucketLabel names them.
const SeqLenBuckets = 8

// seqBucket maps a per-delivery run length (faulting instruction included)
// to its histogram bucket: 1, 2, 3–4, 5–8, 9–16, 17–32, 33–64, 65+.
func seqBucket(n int) int {
	switch {
	case n <= 1:
		return 0
	case n == 2:
		return 1
	case n <= 4:
		return 2
	case n <= 8:
		return 3
	case n <= 16:
		return 4
	case n <= 32:
		return 5
	case n <= 64:
		return 6
	default:
		return 7
	}
}

// SeqLenBucketLabel returns the human-readable range of histogram bucket i.
func SeqLenBucketLabel(i int) string {
	return [...]string{"1", "2", "3-4", "5-8", "9-16", "17-32", "33-64", "65+"}[i]
}

// traceEnd returns the exclusive end index of the trace rooted at entry: the
// entry instruction plus the forward run of instructions that pass the
// coalescable stop predicate, at most limit instructions in all. It is the
// only walk of the predicate: sequence emulation, superblock compile,
// revalidation and shared-cache adoption all measure traces with it. The
// entry itself is not checked; each caller knows what its entry may carry.
func traceEnd(m *machine.Machine, entry, limit int) int {
	insts := m.Insts()
	packed := insts[entry].Op.IsPacked()
	end := entry + 1
	for end < len(insts) && end-entry < limit && coalescable(m, end, insts[end].Op, packed) {
		end++
	}
	return end
}

// coalescable is the conservative stop-condition predicate, mirroring the
// §4.2 virtualizability holes. A trace continues only through instructions
// that are (a) plain FP arithmetic or FP moves — anything else (integer
// ops, branches, bitwise FP, I/O, callext/trapc, halt) must go back through
// the machine's dispatcher; (b) in the same scalar/packed lane mode as the
// entry instruction; and (c) free of side-table entries (patch sites and
// correctness sites carry their own required dispatch semantics).
func coalescable(m *machine.Machine, idx int, op isa.Op, packed bool) bool {
	if !op.IsFPArith() && !op.IsFPMove() {
		return false
	}
	if op.IsPacked() != packed {
		return false
	}
	return !m.SeqBarrier(idx)
}

// runTrace retires the instructions [from, to) one by one and reports how
// many retired. With compiled nil each goes through the decode cache, bind
// and emulate; otherwise compiled[i] is the pre-decoded, pre-bound form of
// instruction from+i and costs one superblock dispatch. A degradable fault
// retires its instruction natively through the degradation engine, counts
// it, and cuts the trace there (cut reports that); a genuine machine fault
// is returned, since native execution would die the same way.
func (vm *VM) runTrace(m *machine.Machine, from, to int, compiled []decodedInst) (retired int, cut bool, err error) {
	insts := m.Insts()
	for idx := from; idx < to; idx++ {
		in := insts[idx]
		vm.attribute(m, idx, in)
		var rerr error
		if compiled == nil {
			rerr = vm.emulateOne(m, idx, in)
		} else {
			d := &compiled[idx-from]
			vm.Stats.Cycles.Emulate += vm.costs.SBDispatch
			m.Cycles += vm.costs.SBDispatch
			if rerr = kindRunners[d.kind](vm, m, d); rerr == nil {
				m.Advance(in)
			}
		}
		if rerr != nil {
			cause, ok := asDegrade(rerr)
			if !ok {
				return retired, false, rerr
			}
			if derr := vm.degrade(m, in, idx, cause); derr != nil {
				return retired, false, derr
			}
			return retired + 1, true, nil
		}
		retired++
	}
	return retired, false, nil
}

// attribute points the per-instruction observers at the instruction about to
// retire: injected faults and telemetry's promote/demote/unbox events
// attribute to its PC, and the sanitizer charges its shadow observations to
// its site. Each observer is one nil check when detached.
func (vm *VM) attribute(m *machine.Machine, idx int, in isa.Inst) {
	if vm.inject != nil {
		vm.injectPC = in.Addr
	}
	if m.Telem != nil {
		vm.telemPC = in.Addr
	}
	if vm.san != nil {
		vm.sanNote(m, idx, in)
	}
}
