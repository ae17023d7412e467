// Package machine implements the CPU + memory simulator that stands in for
// the paper's x64 hardware and Linux kernel (see DESIGN.md §2). It executes
// isa.Program images with a software FPU (package fpu) that honors %mxcsr
// exception masks and delivers precise faults — without retiring the
// faulting instruction — through configurable trap-delivery cost models
// (package trap). FPVM installs itself as the machine's FP trap handler
// exactly as the real prototype installs a SIGFPE handler.
package machine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"fpvm/internal/fpu"
	"fpvm/internal/isa"
	"fpvm/internal/telemetry"
	"fpvm/internal/trap"
)

// Default memory geometry. The data segment loads at DataBase; the stack
// grows down from the top of memory.
const (
	DefaultMemSize  = 4 << 20 // 4 MiB
	DefaultDataBase = 0x1000
)

// CPUFlags models the RFLAGS bits the ISA's conditional jumps consume.
type CPUFlags struct {
	ZF, SF, OF, CF, PF bool
}

// TrapCause says why the FP trap handler was invoked.
type TrapCause uint8

const (
	CauseFPException  TrapCause = iota // unmasked MXCSR event
	CauseCorrectness                   // explicit trapc from the static patcher
	CauseExternalCall                  // callext site (patched demotion point)
)

func (c TrapCause) String() string {
	switch c {
	case CauseFPException:
		return "fp-exception"
	case CauseCorrectness:
		return "correctness"
	case CauseExternalCall:
		return "external-call"
	default:
		return "cause?"
	}
}

// TrapFrame is the signal-frame analog handed to trap handlers. Handlers may
// mutate machine state freely (like writing through a ucontext) and must
// advance RIP past the faulting instruction if they emulated it.
//
// A handler may retire more than one instruction per delivery: after
// emulating the faulting instruction it can keep walking the dense stream
// and emulate the following instructions too (sequence emulation, the
// software amortization of the Figure 9 delivery cost). It reports the
// number of *additional* instructions it retired in Coalesced; the machine
// credits them to Stats.Instructions so retirement accounting stays exact.
//
// Frames belong to the machine, one per delivery depth, and are reused from
// one delivery to the next, so a delivery allocates nothing. A frame is
// valid only while the handler it was passed to runs: a handler must not
// keep the *TrapFrame (or hand it to anything that does) after it returns,
// because the next delivery at the same depth overwrites it. A delivery
// nested inside a handler — a trap raised by an instruction the handler
// executes through the machine — gets the next depth's frame and leaves
// the outer one intact.
type TrapFrame struct {
	M     *Machine
	Cause TrapCause
	Inst  isa.Inst  // the faulting/trapping instruction
	Idx   int       // dense instruction index of Inst (see Machine.InstIndex)
	Flags fpu.Flags // MXCSR condition flags observed (FP exceptions)
	Site  int64     // correctness-trap site id (trapc immediate)

	// Coalesced is set by the FP trap handler: the number of instructions
	// beyond Inst that it decoded, emulated, and advanced RIP past inside
	// this one delivery. Zero means the classic one-trap-one-instruction
	// contract.
	Coalesced int
}

// TrapHandler processes a delivered trap. A nil return resumes execution at
// the machine's (possibly updated) RIP.
type TrapHandler func(*TrapFrame) error

// PatchHandler implements trap-and-patch (§3.2): it replaces the instruction
// at a patched site. Returning handled=false makes the machine execute the
// original instruction natively (precondition checks passed).
type PatchHandler func(*TrapFrame) (handled bool, err error)

// Stats aggregates execution counters for the evaluation harness.
type Stats struct {
	Instructions    uint64     // retired instructions (incl. emulated)
	FPInstructions  uint64     // retired FP-arithmetic instructions
	FPTraps         uint64     // delivered FP exception traps
	CoalescedFP     uint64     // instructions retired inside a trap delivery beyond the faulting one
	CorrectTraps    uint64     // delivered correctness traps
	ExtCallTraps    uint64     // delivered external-call traps
	PatchInvokes    uint64     // trap-and-patch handler invocations
	SBCompiled      uint64     // superblocks compiled by the trace-JIT tier
	SBHits          uint64     // superblock entries executed (zero-delivery re-entries)
	SBInvalidations uint64     // superblocks discarded on side-table/code-version changes
	TrapByFlag      [64]uint64 // trap counts indexed by the unmasked fpu.Flags set
	Trap            trap.Stats // delivery cost accounting
}

// instSlot is the per-instruction side table of the dense pipeline: one
// bounds-checked array access at dispatch replaces the seed's three map
// probes (decoded code, patch sites, correctness sites) per retired
// instruction.
type instSlot struct {
	patch   PatchHandler // trap-and-patch handler, nil when unpatched
	site    int64        // correctness-trap site id
	hasSite bool         // whether a correctness site is installed
}

// Machine is a single-core simulated CPU with flat memory.
type Machine struct {
	// Architectural state.
	R     [isa.NumIntRegs]int64    // integer registers; R15 is SP
	F     [isa.NumFPRegs][2]uint64 // 128-bit FP registers (two f64 lanes)
	RIP   uint64
	Flags CPUFlags
	MXCSR fpu.MXCSR
	Mem   []byte

	// Program image: a dense predecoded instruction stream (the "silicon"
	// decoder), an addr→index table for control flow, and the per-index
	// side table carrying patch and correctness-site slots.
	Prog     *isa.Program
	insts    []isa.Inst
	addrIdx  []int32 // code address → index into insts; -1 off-boundary
	slots    []instSlot
	curIdx   int    // index of the instruction currently being dispatched
	dataBase uint64 // base of the writable data segment (code space below is read-only text)
	// Version counters for caches (superblocks) built over the side table and
	// code segment: sideVer advances on every side-table mutation (SetPatch,
	// SetCorrectnessSite, Load, Reset), codeVer on every store into the
	// code-segment shadow below the data base. A cached trace snapshots both
	// and revalidates or discards itself when either has moved.
	sideVer uint64
	codeVer uint64
	// frames is the trap-frame stack indexed by delivery depth; depth is the
	// number of deliveries in progress. Frames are allocated on first use at
	// each depth and reused from then on (see TrapFrame).
	frames []*TrapFrame
	depth  int

	// Virtualization hooks.
	FPTrap          TrapHandler // SIGFPE-analog handler (FPVM)
	CorrectnessTrap TrapHandler // trapc handler (FPVM demotion)
	ExternalTrap    TrapHandler // callext interposition
	// TrapOnNaNLoad enables the §6.2 hardware extension: an integer
	// instruction about to read a memory word whose bit pattern is a NaN
	// raises a correctness trap first, making the static analysis
	// unnecessary. Site id -2 marks these hardware-detected traps.
	TrapOnNaNLoad bool
	OutFilter     func(bits uint64) (string, bool) // printf hijack (§2 printing problem)
	// Telem, when non-nil, receives trap entry/exit events and per-PC site
	// attribution for every delivered trap. The nil default keeps the
	// dispatch loop's behavior and cost accounting bit-identical — telemetry
	// is strictly observational and never charges cycles.
	Telem *telemetry.Collector

	// Cost accounting.
	Cost                CostModel
	Profile             *trap.CostProfile
	Delivery            trap.Kind // delivery model for FP traps
	CorrectnessDelivery trap.Kind
	Cycles              uint64
	Stats               Stats

	// Preempt, when non-nil, is the cooperative-preemption flag: Run re-checks
	// it every PreemptEvery retired instructions (a checkpoint, not a per-step
	// poll) and returns a typed *DeadlineError when it is set. Another
	// goroutine — a deadline timer, a canceled request context — stores true
	// to stop the run at the next checkpoint with all state harvestable at an
	// instruction boundary, exactly like a budget truncation. A nil flag is
	// the default and costs nothing: the dispatch loop is unchanged.
	Preempt *atomic.Bool
	// PreemptEvery is the checkpoint interval in retired instructions
	// (0 = DefaultPreemptEvery). Smaller intervals bound preemption latency
	// tighter at the cost of more atomic loads per run.
	PreemptEvery uint64

	Out    io.Writer
	halted bool
}

// New creates a machine with default geometry, cost model, and the R815
// delivery profile, and loads prog.
func New(prog *isa.Program, out io.Writer) (*Machine, error) {
	return NewSized(prog, out, DefaultMemSize)
}

// NewSized is New with an explicit memory size. Smaller machines make dense
// session pools affordable (hundreds of concurrent guests); the GC scan cost
// is proportional to writable memory, so cycle counts are only comparable
// between runs that use the same geometry.
func NewSized(prog *isa.Program, out io.Writer, memSize int) (*Machine, error) {
	if memSize <= 0 {
		memSize = DefaultMemSize
	}
	m := &Machine{
		Mem:                 make([]byte, memSize),
		Cost:                DefaultCostModel(),
		Profile:             &trap.R815,
		Delivery:            trap.DeliverUserSignal,
		CorrectnessDelivery: trap.DeliverUserSignal,
		Out:                 out,
	}
	m.MXCSR = fpu.DefaultMXCSR
	if err := m.Load(prog); err != nil {
		return nil, err
	}
	return m, nil
}

// Reset returns the machine to the exact state NewSized(prog, out, memSize)
// would produce — architectural state, cost model, delivery profile, stats,
// and hooks all back to their defaults — while retaining every allocation:
// the memory image, the dense instruction stream, the addr→index table, the
// side-table slots, and the trap frames. This is what makes a machine cheaply
// poolable: a reused machine is bit-identical to a fresh one, it just does
// not pay the allocations again.
//
// When prog is pointer-identical to the currently loaded program the
// predecode pass is skipped entirely (the dense stream is immutable program
// text); callers that reuse a *isa.Program across runs must therefore not
// mutate it. memSize <= 0 keeps the current memory size.
func (m *Machine) Reset(prog *isa.Program, out io.Writer, memSize int) error {
	if prog == nil {
		return errors.New("machine: nil program")
	}
	if memSize > 0 && memSize != len(m.Mem) {
		m.Mem = make([]byte, memSize)
	} else {
		// Zero the whole image: guests may have written anywhere in bounds,
		// and a pooled machine must never leak one session's bytes into the
		// next (clear compiles to memclr).
		clear(m.Mem)
	}
	m.R = [isa.NumIntRegs]int64{}
	m.F = [isa.NumFPRegs][2]uint64{}
	m.Flags = CPUFlags{}
	m.MXCSR = fpu.DefaultMXCSR
	m.Cycles = 0

	m.Stats = Stats{}
	m.depth = 0
	for _, f := range m.frames {
		*f = TrapFrame{}
	}

	m.FPTrap, m.CorrectnessTrap, m.ExternalTrap = nil, nil, nil
	m.TrapOnNaNLoad = false
	m.OutFilter = nil
	m.Telem = nil
	m.Preempt = nil
	m.PreemptEvery = 0

	m.Cost = DefaultCostModel()
	m.Profile = &trap.R815
	m.Delivery = trap.DeliverUserSignal
	m.CorrectnessDelivery = trap.DeliverUserSignal
	m.Out = out

	if prog == m.Prog {
		// Same immutable image: the predecoded stream and addr→index table
		// are still exact. Only the side-table slots (patch handlers,
		// correctness sites) belong to the previous session.
		clear(m.slots)
		m.sideVer++
		return m.loadData(prog)
	}
	return m.Load(prog)
}

// Load installs a program image: code is predecoded once into the dense
// instruction stream with its addr→index table and side-table slots, data
// copied to its base, SP set to the top of memory, RIP to the entry point.
// Any previously installed patch or correctness-site slots are discarded
// with the old image.
func (m *Machine) Load(prog *isa.Program) error {
	if prog == nil {
		return errors.New("machine: nil program")
	}
	m.Prog = prog
	m.insts = m.insts[:0]
	if cap(m.addrIdx) >= len(prog.Code) {
		m.addrIdx = m.addrIdx[:len(prog.Code)]
	} else {
		m.addrIdx = make([]int32, len(prog.Code))
	}
	for i := range m.addrIdx {
		m.addrIdx[i] = -1
	}
	for addr := uint64(0); addr < uint64(len(prog.Code)); {
		in, err := isa.Decode(prog.Code, addr)
		if err != nil {
			return fmt.Errorf("machine: predecode: %w", err)
		}
		m.addrIdx[addr] = int32(len(m.insts))
		m.insts = append(m.insts, in)
		addr += uint64(in.Len)
	}
	if cap(m.slots) >= len(m.insts) {
		m.slots = m.slots[:len(m.insts)]
		clear(m.slots)
	} else {
		m.slots = make([]instSlot, len(m.insts))
	}
	m.sideVer++
	return m.loadData(prog)
}

// loadData installs the data segment, stack pointer, and entry point — the
// per-run half of Load, shared with the Reset fast path that retains the
// predecoded stream.
func (m *Machine) loadData(prog *isa.Program) error {
	base := prog.DataBase
	if base == 0 {
		base = DefaultDataBase
	}
	if int(base)+len(prog.Data) > len(m.Mem) {
		return fmt.Errorf("machine: data segment (%d bytes at %#x) exceeds memory", len(prog.Data), base)
	}
	m.dataBase = base
	copy(m.Mem[base:], prog.Data)
	m.RIP = prog.Entry
	m.R[isa.RegSP] = int64(len(m.Mem)) // empty descending stack
	m.halted = false
	return nil
}

// Halted reports whether the program has executed halt.
func (m *Machine) Halted() bool { return m.halted }

// FaultError is returned for machine-level faults (bad memory, bad opcode,
// unhandled FP exception) — the moral equivalent of the process dying.
type FaultError struct {
	RIP    uint64
	Reason string
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("machine fault at %#x: %s", e.RIP, e.Reason)
}

func (m *Machine) fault(format string, args ...any) error {
	return &FaultError{RIP: m.RIP, Reason: fmt.Sprintf(format, args...)}
}

// ReadU64 loads 8 bytes little-endian from addr.
func (m *Machine) ReadU64(addr uint64) (uint64, error) {
	if addr >= uint64(len(m.Mem)) || uint64(len(m.Mem))-addr < 8 {
		return 0, m.fault("load out of bounds: %#x", addr)
	}
	return binary.LittleEndian.Uint64(m.Mem[addr:]), nil
}

// WriteU64 stores 8 bytes little-endian at addr. A store below the data base
// lands in the code-segment shadow: execution always fetches from the
// immutable predecoded stream, but any cache compiled over that stream (the
// trace-JIT superblocks) must treat the write as a code modification, so the
// code version advances.
func (m *Machine) WriteU64(addr, v uint64) error {
	if addr >= uint64(len(m.Mem)) || uint64(len(m.Mem))-addr < 8 {
		return m.fault("store out of bounds: %#x", addr)
	}
	if addr < m.dataBase {
		m.codeVer++
	}
	binary.LittleEndian.PutUint64(m.Mem[addr:], v)
	return nil
}

// BudgetError is returned by Run when the caller's instruction budget is
// exhausted before the program halts. Unlike a FaultError it does not mean
// the guest died: machine state is consistent at an instruction boundary and
// fully harvestable, which is what lets a serving layer treat a quota as a
// degradation (truncate the run, report partial results) rather than a kill.
type BudgetError struct {
	RIP    uint64
	Budget uint64
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("machine fault at %#x: instruction budget exceeded (%d)", e.RIP, e.Budget)
}

// DefaultPreemptEvery is the deadline checkpoint interval when
// Machine.PreemptEvery is zero: frequent enough that a preempted run stops
// within microseconds of wall clock, rare enough that the atomic load
// vanishes against the per-instruction dispatch cost.
const DefaultPreemptEvery = 10_000

// DeadlineError is returned by Run when the cooperative-preemption flag was
// observed set at a checkpoint. Like BudgetError — and unlike a FaultError —
// it does not mean the guest died: the machine stopped at an instruction
// boundary with registers, memory, stats, and modeled cycles all consistent
// and harvestable, which is what lets a serving layer turn a deadline or a
// canceled request into a truncated result instead of a kill.
type DeadlineError struct {
	RIP          uint64
	Instructions uint64 // retirements when the flag was observed
}

func (e *DeadlineError) Error() string {
	return fmt.Sprintf("machine fault at %#x: deadline exceeded (%d instructions retired)", e.RIP, e.Instructions)
}

// Run executes until halt, a fault, maxInstructions retirements
// (0 = unlimited), or — when Preempt is armed — a deadline checkpoint that
// observes the flag set. It returns nil on a clean halt, *BudgetError when
// the instruction budget ran out first, and *DeadlineError when preempted.
//
// Preemption is cooperative: the flag is re-checked every PreemptEvery
// retired instructions, never mid-instruction, so a preempted run is always
// left at an instruction boundary. Checkpoints charge no modeled cycles —
// an armed-but-never-fired flag leaves the run bit- and cycle-identical to
// an unarmed one.
func (m *Machine) Run(maxInstructions uint64) error {
	every := m.PreemptEvery
	if every == 0 {
		every = DefaultPreemptEvery
	}
	var checkpoint uint64
	if m.Preempt != nil {
		checkpoint = m.Stats.Instructions + every
	}
	for !m.halted {
		if err := m.Step(); err != nil {
			return err
		}
		if maxInstructions > 0 && m.Stats.Instructions >= maxInstructions {
			return &BudgetError{RIP: m.RIP, Budget: maxInstructions}
		}
		if checkpoint != 0 && m.Stats.Instructions >= checkpoint {
			if m.Preempt.Load() {
				return &DeadlineError{RIP: m.RIP, Instructions: m.Stats.Instructions}
			}
			checkpoint = m.Stats.Instructions + every
		}
	}
	return nil
}

// InstIndex returns the dense-stream index of the instruction starting at
// addr, or false when addr is not an instruction boundary.
func (m *Machine) InstIndex(addr uint64) (int, bool) {
	if addr >= uint64(len(m.addrIdx)) {
		return 0, false
	}
	i := m.addrIdx[addr]
	if i < 0 {
		return 0, false
	}
	return int(i), true
}

// InstAt returns the predecoded instruction at addr.
func (m *Machine) InstAt(addr uint64) (isa.Inst, bool) {
	i, ok := m.InstIndex(addr)
	if !ok {
		return isa.Inst{}, false
	}
	return m.insts[i], true
}

// Insts exposes the dense predecoded instruction stream in code order. The
// returned slice is the machine's own and must not be mutated.
func (m *Machine) Insts() []isa.Inst { return m.insts }

// SetPatch installs (or, with a nil handler, removes) a trap-and-patch site
// at addr. It reports false when addr is not an instruction boundary.
func (m *Machine) SetPatch(addr uint64, h PatchHandler) bool {
	i, ok := m.InstIndex(addr)
	if !ok {
		return false
	}
	m.slots[i].patch = h
	m.sideVer++
	return true
}

// SetCorrectnessSite installs a correctness-trap site at addr; the machine
// delivers a correctness trap before each execution of that instruction. It
// reports false when addr is not an instruction boundary.
func (m *Machine) SetCorrectnessSite(addr uint64, site int64) bool {
	i, ok := m.InstIndex(addr)
	if !ok {
		return false
	}
	m.slots[i].site = site
	m.slots[i].hasSite = true
	m.sideVer++
	return true
}

// CorrectnessSite returns the site id installed at addr, if any.
func (m *Machine) CorrectnessSite(addr uint64) (int64, bool) {
	i, ok := m.InstIndex(addr)
	if !ok || !m.slots[i].hasSite {
		return 0, false
	}
	return m.slots[i].site, true
}

// CorrectnessSiteCount returns how many correctness sites are installed.
func (m *Machine) CorrectnessSiteCount() int {
	n := 0
	for i := range m.slots {
		if m.slots[i].hasSite {
			n++
		}
	}
	return n
}

// SeqBarrier reports whether the instruction at dense index idx carries a
// side-table entry — a trap-and-patch handler or a correctness site — that a
// coalescing FP trap handler must not emulate past: those sites demand their
// own dispatch through the machine (§4.2 virtualizability holes).
func (m *Machine) SeqBarrier(idx int) bool {
	if idx < 0 || idx >= len(m.slots) {
		return true
	}
	return m.slots[idx].patch != nil || m.slots[idx].hasSite
}

// SiteBarrier reports whether the instruction at dense index idx carries a
// correctness site. A cached trace that owns the patch slot at its own entry
// uses this instead of SeqBarrier to revalidate the entry instruction —
// its own patch handler is not a barrier to itself, but a correctness site
// installed later must still get its delivery.
func (m *Machine) SiteBarrier(idx int) bool {
	if idx < 0 || idx >= len(m.slots) {
		return true
	}
	return m.slots[idx].hasSite
}

// SideTableVersion returns the side-table mutation counter. It advances on
// every SetPatch/SetCorrectnessSite/Load/Reset, so a cache built over the
// side table can detect staleness with one comparison.
func (m *Machine) SideTableVersion() uint64 { return m.sideVer }

// CodeVersion returns the code-segment write counter (stores below the data
// base). Execution fetches from the immutable predecoded stream, so a moved
// code version means any compiled trace is no longer a faithful cache of
// what a re-decoding interpreter would see.
func (m *Machine) CodeVersion() uint64 { return m.codeVer }

// WritableBase returns the base of writable program memory: the data segment
// (and the heap/stack above it). Addresses below it shadow the read-only code
// segment and are never written by a well-formed program, so conservative
// scanners (FPVM's GC) need not probe them — the paper's §4.1 collector scans
// "all writable program memory", not text.
func (m *Machine) WritableBase() uint64 { return m.dataBase }

// pushFrame fills and returns the trap frame for a delivery about to start
// at the next depth; popFrame ends it. A handler that panics leaves its
// depth pushed; Reset rewinds it.
func (m *Machine) pushFrame(cause TrapCause, in isa.Inst, idx int, flags fpu.Flags, site int64) *TrapFrame {
	if m.depth == len(m.frames) {
		m.frames = append(m.frames, new(TrapFrame))
	}
	f := m.frames[m.depth]
	m.depth++
	*f = TrapFrame{M: m, Cause: cause, Inst: in, Idx: idx, Flags: flags, Site: site}
	return f
}

func (m *Machine) popFrame() { m.depth-- }

// deliverTrap charges delivery costs and invokes a handler with the frame
// for this delivery, returning the number of instructions the handler
// retired beyond in (TrapFrame.Coalesced). When a telemetry collector is
// attached it also emits trap entry/exit events and attributes the
// delivery's full modeled cost (entry + handler + exit) to the trap site;
// the nil path is the exact pre-telemetry sequence.
func (m *Machine) deliverTrap(h TrapHandler, k trap.Kind, cause TrapCause, in isa.Inst, flags fpu.Flags, site int64) (int, error) {
	f := m.pushFrame(cause, in, m.curIdx, flags, site)
	m.Stats.Trap.Record(m.Profile, k)
	if m.Telem == nil {
		m.Cycles += m.Profile.EntryCycles(k)
		err := h(f)
		m.Cycles += m.Profile.ExitCycles(k)
		m.popFrame()
		return f.Coalesced, err
	}
	tc := telemetryCause(cause)
	before := m.Cycles
	m.Cycles += m.Profile.EntryCycles(k)
	m.Telem.TrapEnter(tc, f.Idx, in.Addr, in.Op, flags, m.Cycles)
	err := h(f)
	m.Cycles += m.Profile.ExitCycles(k)
	m.Telem.TrapExit(tc, f.Idx, in.Addr, in.Op, flags,
		m.Cycles-before, f.Coalesced, m.Cycles)
	m.popFrame()
	return f.Coalesced, err
}

// telemetryCause maps the machine's trap cause onto the telemetry package's
// import-cycle-free mirror.
func telemetryCause(c TrapCause) telemetry.Cause {
	switch c {
	case CauseCorrectness:
		return telemetry.CauseCorrectness
	case CauseExternalCall:
		return telemetry.CauseExternal
	default:
		return telemetry.CauseFP
	}
}

// Step executes one dispatch (or delivers a trap for it). Fetch is one
// bounds-checked table access into the dense stream; the patch and
// correctness side tables ride in the same per-index slot.
//
// Contract: a Step normally retires exactly one guest instruction, but when
// an FP trap handler performs sequence emulation it may retire a whole
// straight-line run (1 + TrapFrame.Coalesced instructions) under one
// delivery. Callers that count on one-instruction granularity (lockstep
// comparators) must resynchronize on Stats.Instructions, not on Step calls.
func (m *Machine) Step() error {
	if m.halted {
		return nil
	}
	if m.RIP >= uint64(len(m.addrIdx)) || m.addrIdx[m.RIP] < 0 {
		return m.fault("RIP not at an instruction boundary")
	}
	idx := int(m.addrIdx[m.RIP])
	in := m.insts[idx]
	m.curIdx = idx

	// Trap-and-patch: a patched site bypasses fetch/execute and runs the
	// patch's handler after a cheap inline check (§3.2).
	if ph := m.slots[idx].patch; ph != nil {
		m.Cycles += m.Cost.PatchCheck
		m.Stats.PatchInvokes++
		f := m.pushFrame(CauseFPException, in, idx, 0, 0)
		handled, err := ph(f)
		m.popFrame()
		if err != nil {
			return err
		}
		if handled {
			// A patch handler may multi-retire like a coalescing trap handler
			// does: a superblock executes a whole straight-line run under one
			// patch check. Classic patches leave Coalesced at zero.
			m.Stats.Instructions += 1 + uint64(f.Coalesced)
			m.Stats.CoalescedFP += uint64(f.Coalesced)
			return nil
		}
		// Fall through: execute natively below.
	}

	return m.exec(in, &m.slots[idx])
}
