// The shared warm superblock cache: the pooled-session counterpart of the
// trace-JIT tier. A superblock is compiled from the machine's immutable
// predecoded instruction stream, so for a given *isa.Program a trace is a
// pure function of (entry index, trace cap, stop-condition barriers at
// compile time) — it carries no machine state, no side-table state, and no
// arithmetic-system state. That makes a compiled trace safe to share across
// sessions running the pointer-identical program under the same cap: each
// session wraps the shared slice in its own superblock struct with private
// version stamps, and all per-session mutation (revalidation restamps,
// invalidation, hit counts) happens on the wrapper. The published traces
// themselves are read-only after publication — runners never write through
// *decodedInst — so concurrent tenants can execute the same slice without
// synchronization.
//
// Staleness cannot cross sessions by construction: a tenant's code writes,
// SetPatch calls, and storm patches advance only its own machine's version
// counters, which invalidate only its own wrappers. The shared entry stays
// exactly what the compiler produced from the immutable program text, which
// is always a faithful trace for a freshly Reset machine; a session whose
// side table forbids an entry (a correctness site or foreign patch inside
// the trace) simply declines to adopt it at attach time.
//
// Output can. An adopted entry patch is live from the first instruction, so
// the entry is emulated, and its result boxed, on visits where a cold run
// still executes it natively because it has not yet trapped enough to
// compile. Only Vanilla's emulation is bit- and print-identical to native
// execution, so only Vanilla sessions adopt; sessions under any other
// system compile cold (they still publish).
package fpvm

import (
	"sync"
	"sync/atomic"

	"fpvm/internal/isa"
	"fpvm/internal/machine"
)

// SBCacheStats is a point-in-time snapshot of shared-cache traffic.
type SBCacheStats struct {
	// Lookups counts attach-time program lookups; Hits the subset that found
	// at least one published trace to adopt (Hits/Lookups is the warm-attach
	// rate a serving deployment watches).
	Lookups uint64
	Hits    uint64
	// Stores counts published traces; Adopted counts wrapper installs handed
	// to attaching sessions.
	Stores  uint64
	Adopted uint64
	// Programs counts (program, trace cap) keys; Entries the traces under
	// them.
	Programs int
	Entries  int
}

// sbKey selects one program's traces under one trace cap: pointer identity
// of the immutable *isa.Program (the contract machine.Reset already imposes
// on pooled programs) and VM.traceCap, so a tenant never adopts a trace
// longer or shorter than it would compile itself.
type sbKey struct {
	prog *isa.Program
	cap  int
}

// SBCache is a concurrency-safe, read-mostly superblock cache shared by every
// session whose Config points at it, keyed by sbKey plus the dense entry
// index.
type SBCache struct {
	mu    sync.RWMutex
	progs map[sbKey]map[int][]decodedInst

	lookups atomic.Uint64
	hits    atomic.Uint64
	stores  atomic.Uint64
	adopted atomic.Uint64
}

// NewSBCache returns an empty shared superblock cache.
func NewSBCache() *SBCache {
	return &SBCache{progs: make(map[sbKey]map[int][]decodedInst)}
}

// publish stores a freshly compiled trace under k at entry. First writer
// wins: a concurrent tenant compiling the same entry produced an identical
// trace (both translated the same immutable instruction run), so replacing
// would only churn memory under readers.
func (c *SBCache) publish(k sbKey, entry int, trace []decodedInst) {
	if c == nil || k.prog == nil || len(trace) == 0 {
		return
	}
	c.mu.Lock()
	entries := c.progs[k]
	if entries == nil {
		entries = make(map[int][]decodedInst)
		c.progs[k] = entries
	}
	if _, ok := entries[entry]; !ok {
		entries[entry] = trace
		c.stores.Add(1)
	}
	c.mu.Unlock()
}

// snapshot returns the published entry set under k (nil when nothing has
// been compiled against it). The returned map is freshly allocated; the
// trace slices are the shared read-only ones.
func (c *SBCache) snapshot(k sbKey) map[int][]decodedInst {
	c.lookups.Add(1)
	c.mu.RLock()
	entries := c.progs[k]
	var out map[int][]decodedInst
	if len(entries) > 0 {
		out = make(map[int][]decodedInst, len(entries))
		for e, t := range entries {
			out[e] = t
		}
	}
	c.mu.RUnlock()
	if out != nil {
		c.hits.Add(1)
	}
	return out
}

// Stats snapshots the cache counters and sizes.
func (c *SBCache) Stats() SBCacheStats {
	if c == nil {
		return SBCacheStats{}
	}
	s := SBCacheStats{
		Lookups: c.lookups.Load(),
		Hits:    c.hits.Load(),
		Stores:  c.stores.Load(),
		Adopted: c.adopted.Load(),
	}
	c.mu.RLock()
	s.Programs = len(c.progs)
	for _, entries := range c.progs {
		s.Entries += len(entries)
	}
	c.mu.RUnlock()
	return s
}

// adoptShared installs every published trace for m's program that this
// session's side table permits, wrapping each shared slice in a private
// superblock. Adoption charges no modeled cycles — skipping the warm-up
// deliveries and the compile is exactly the optimization — and increments no
// SBCompiled counter, which is how the load harness proves warm checkouts
// compile nothing. Version stamps are taken after every install so the
// block's own SetPatch calls do not read as foreign side-table writes.
func (vm *VM) adoptShared(m *machine.Machine) {
	entries := vm.cfg.SBCache.snapshot(sbKey{m.Prog, vm.traceCap()})
	if entries == nil {
		return
	}
	insts := m.Insts()
	// Admission runs against the PRE-adoption side table for every candidate
	// before any install: published traces legitimately overlap (an early
	// long trace may cross a site that later became its own entry), so our
	// own entry patches must not count as body barriers for each other —
	// map iteration order would otherwise make the adopted set, and with it
	// the warm run's modeled cycles, nondeterministic. A trace crossing a
	// sibling entry executes that instruction identically, it just skips the
	// sibling's dispatch.
	type candidate struct {
		entry int
		trace []decodedInst
	}
	var admit []candidate
	for entry, trace := range entries {
		end := entry + len(trace)
		if entry < 0 || end > len(insts) || trace[0].inst.Addr != insts[entry].Addr {
			continue // published against a different (stale) program layout
		}
		// The same admission contract compileSB enforces, re-checked against
		// THIS session's side table: no dispatch semantics may be shadowed.
		if m.SeqBarrier(entry) || traceEnd(m, entry, len(trace)) < end {
			continue
		}
		admit = append(admit, candidate{entry, trace})
	}
	var installed []*superblock
	for _, c := range admit {
		if !m.SetPatch(insts[c.entry].Addr, vm.sbFn) {
			continue
		}
		sb := &superblock{entry: c.entry, trace: c.trace}
		vm.sblocks[c.entry] = sb
		installed = append(installed, sb)
	}
	side, code := m.SideTableVersion(), m.CodeVersion()
	for _, sb := range installed {
		sb.sideVer, sb.codeVer = side, code
	}
	vm.cfg.SBCache.adopted.Add(uint64(len(installed)))
}
