package fpvm

import (
	"fmt"
	"io"
	"math"
	"sort"

	"fpvm/internal/arith"
	"fpvm/internal/fpu"
	"fpvm/internal/machine"
)

// Spy is the FPSpy mode of the runtime: the paper's predecessor tool whose
// machinery FPVM reuses (§4.1). Where FPVM emulates a faulting instruction
// in alternative arithmetic, FPSpy merely *records* the event — which flags
// fired, at which instruction — and then lets the instruction execute as
// normal, producing the IEEE-masked result. It answers "where does this
// binary round/overflow/eat NaNs?" without changing a single output bit.
type Spy struct {
	M     *machine.Machine
	Stats SpyStats

	costs  Costs
	dcache []*decodedInst // decode cache, one slot per instruction index
}

// SpyStats aggregates the recorded floating point events.
type SpyStats struct {
	Events   uint64            // total trapped events
	ByFlag   map[string]uint64 // counts per flag combination
	ByOp     map[string]uint64 // counts per operation mnemonic
	BySite   map[uint64]uint64 // counts per instruction address
	Executed uint64            // events re-executed natively
}

// AttachSpy installs FPSpy on the machine: every MXCSR exception is
// unmasked, and each trap is recorded and then retired with its IEEE
// result. Outputs are bit-identical to an untraced run.
func AttachSpy(m *machine.Machine) *Spy {
	s := &Spy{
		M:      m,
		costs:  DefaultCosts(),
		dcache: make([]*decodedInst, len(m.Insts())),
	}
	s.Stats.ByFlag = make(map[string]uint64)
	s.Stats.ByOp = make(map[string]uint64)
	s.Stats.BySite = make(map[uint64]uint64)
	m.MXCSR.SetMasks(0)
	m.FPTrap = s.handle
	return s
}

// handle records the event and completes the faulting instruction with its
// masked IEEE semantics ("allowing it to be executed as normal").
func (s *Spy) handle(f *machine.TrapFrame) error {
	s.Stats.Events++
	s.Stats.ByFlag[f.Flags.String()]++
	s.Stats.ByOp[f.Inst.Op.String()]++
	s.Stats.BySite[f.Inst.Addr]++
	f.M.MXCSR.ClearFlags()

	d := s.dcache[f.Idx]
	if d == nil {
		d = new(decodedInst)
		if err := translate(f.Inst, d); err != nil {
			return err // FPSpy has no emulator to fall back from
		}
		s.dcache[f.Idx] = d
	}
	s.M.Cycles += s.costs.DecodeHit + s.costs.Bind

	// Retire the instruction with IEEE results (the masked response the
	// hardware would have produced had FPSpy not unmasked the exception).
	switch d.kind {
	case kindArith:
		for lane := 0; lane < d.lanes; lane++ {
			var args [3]float64
			for i, src := range d.srcs {
				bits, err := f.M.ReadOperandFP(src, lane)
				if err != nil {
					return err
				}
				args[i] = quietIEEE(bits)
			}
			res := arith.EvalIEEE(d.aop, args[0], args[1], args[2]).Value
			if err := f.M.WriteOperandFP(d.dst, lane, math.Float64bits(res)); err != nil {
				return err
			}
		}
	case kindCompare:
		abits, err := f.M.ReadOperandFP(d.srcs[0], 0)
		if err != nil {
			return err
		}
		bbits, err := f.M.ReadOperandFP(d.srcs[1], 0)
		if err != nil {
			return err
		}
		c := fpu.Ucomisd(math.Float64frombits(abits), math.Float64frombits(bbits))
		f.M.SetCompareFlags(c.ZF, c.PF, c.CF)
	case kindToInt:
		bits, err := f.M.ReadOperandFP(d.srcs[0], 0)
		if err != nil {
			return err
		}
		rc := f.M.MXCSR.RC()
		if d.truncate {
			rc = fpu.RCZero
		}
		r := fpu.Cvtsd2si(math.Float64frombits(bits), rc)
		if err := f.M.WriteOperandInt(d.dst, r.Value); err != nil {
			return err
		}
	case kindFromInt:
		iv, err := f.M.ReadOperandInt(d.srcs[0])
		if err != nil {
			return err
		}
		r := fpu.Cvtsi2sd(iv)
		if err := f.M.WriteOperandFP(d.dst, 0, math.Float64bits(r.Value)); err != nil {
			return err
		}
	}
	s.Stats.Executed++
	f.M.Advance(d.inst)
	return nil
}

// quietIEEE converts operand bits to the float64 the hardware would consume
// (signaling NaNs are quieted by the masked-IE response).
func quietIEEE(bits uint64) float64 {
	if fpu.IsSNaN(bits) {
		return math.Float64frombits(fpu.Quiet(bits))
	}
	return math.Float64frombits(bits)
}

// Report writes an FPSpy-style summary: event totals by flag, by operation,
// and the hottest instruction sites.
func (s *Spy) Report(w io.Writer, topSites int) {
	fmt.Fprintf(w, "FPSpy: %d floating point events observed\n", s.Stats.Events)
	fmt.Fprintln(w, "by condition:")
	for _, k := range sortedCountKeys(s.Stats.ByFlag) {
		fmt.Fprintf(w, "  %-14s %10d\n", k, s.Stats.ByFlag[k])
	}
	fmt.Fprintln(w, "by operation:")
	for _, k := range sortedCountKeys(s.Stats.ByOp) {
		fmt.Fprintf(w, "  %-14s %10d\n", k, s.Stats.ByOp[k])
	}
	type site struct {
		addr uint64
		n    uint64
	}
	var sites []site
	for a, n := range s.Stats.BySite {
		sites = append(sites, site{a, n})
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i].n > sites[j].n })
	if topSites > len(sites) {
		topSites = len(sites)
	}
	fmt.Fprintf(w, "hottest %d sites:\n", topSites)
	for _, st := range sites[:topSites] {
		in, _ := s.M.InstAt(st.addr)
		fmt.Fprintf(w, "  %#06x  %-28v %10d\n", st.addr, in, st.n)
	}
}

func sortedCountKeys(m map[string]uint64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return m[keys[i]] > m[keys[j]] })
	return keys
}
