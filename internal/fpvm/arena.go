package fpvm

import "fpvm/internal/arith"

// Arena is FPVM's shadow-value allocator: a slot table whose indices are the
// keys carried in NaN-boxes. The paper stores raw pointers in the boxes;
// since the usable payload is 51 bits either way, a key-indexed table is the
// variant its footnote 4 describes for platforms without pointer-sized
// payloads, and it gives the garbage collector its "simple data structure
// alongside a marked bit" (§4.1).
//
// Under a recycling arithmetic system (see Reset) a cell's value outlives
// the cell: Sweep retires a cell without dropping its value, and the next
// Alloc of that slot hands the dead value back as a recyclable destination
// (see arith.Value ownership), so an MPFR result is written into the
// mantissa storage of the shadow it replaces instead of a fresh allocation.
// Reset carries the first retainCells values over to the next session.
// Otherwise retired values are dropped, as a dead value would only pin
// memory.
type Arena struct {
	vals    []arith.Value
	recycle bool // retired cells keep their values for reuse
	kept    int  // slots [0, kept) may hold values carried over by Reset
	inUse   []bool
	marked  []bool
	free    []uint64

	allocs    uint64 // lifetime allocations
	reuses    uint64 // allocations served from the free list
	live      int    // currently allocated cells
	highWater int    // peak simultaneously-live cells
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// retainCells bounds the dead values a recycling arena carries across Reset
// (about 6 MiB of MPFR-200 shadows). A pooled session running ordinary
// programs recycles every cell from run to run, while one huge program
// cannot make an idle session pin its whole high water: live memory the Go
// collector must carry, and that raises its heap goal, for nothing.
const retainCells = 1 << 16

// Reset empties the arena while retaining the slot table's capacity: after
// Reset, Live() == 0, every counter is zero, and the next Alloc hands out
// key 0 — the exact key sequence a fresh arena produces, so a pooled
// session's NaN-box patterns are bit-identical to a fresh session's.
// recycle says whether the coming session's system writes results into
// recyclable destinations. If it does, the values of the first retainCells
// slots stay in the table, dead, as destinations for the new session; all
// others are dropped so the Go GC can reclaim them.
func (a *Arena) Reset(recycle bool) {
	keep := 0
	if recycle {
		keep = retainCells
	}
	if end := max(len(a.vals), a.kept); keep < end {
		clear(a.vals[keep:end])
	}
	a.kept = min(max(len(a.vals), a.kept), keep)
	a.recycle = recycle
	a.vals = a.vals[:0]
	a.inUse = a.inUse[:0]
	a.marked = a.marked[:0]
	a.free = a.free[:0]
	a.allocs = 0
	a.reuses = 0
	a.live = 0
	a.highWater = 0
}

// Alloc reserves a cell and returns its key together with the cell's dead
// previous value (nil for a slot never used), which the caller may recycle
// as the destination of the result it then stores with Set. Keys come from
// the free list first, most recently freed first, then from the end of the
// table.
func (a *Arena) Alloc() (key uint64, spare arith.Value) {
	a.allocs++
	a.live++
	if a.live > a.highWater {
		a.highWater = a.live
	}
	if n := len(a.free); n > 0 {
		a.reuses++
		k := a.free[n-1]
		a.free = a.free[:n-1]
		a.inUse[k] = true
		return k, a.vals[k]
	}
	k := len(a.vals)
	if k < cap(a.vals) {
		a.vals = a.vals[:k+1] // a slot retired by Reset: its value is dead
	} else {
		a.vals = append(a.vals, nil)
	}
	a.inUse = append(a.inUse, true)
	a.marked = append(a.marked, false)
	return uint64(k), a.vals[k]
}

// Set stores v in the cell key, which Alloc reserved.
func (a *Arena) Set(key uint64, v arith.Value) { a.vals[key] = v }

// Get returns the shadow value for key, if allocated.
func (a *Arena) Get(key uint64) (arith.Value, bool) {
	if key >= uint64(len(a.vals)) || !a.inUse[key] {
		return nil, false
	}
	return a.vals[key], true
}

// Live returns the number of currently allocated cells.
func (a *Arena) Live() int { return a.live }

// Allocs returns the lifetime allocation count.
func (a *Arena) Allocs() uint64 { return a.allocs }

// HighWater returns the peak number of simultaneously live cells: the
// table's real memory footprint, since swept slots are recycled through the
// free list rather than returned to the Go heap.
func (a *Arena) HighWater() int { return a.highWater }

// Reuses returns how many allocations were served from the free list
// instead of growing the slot table.
func (a *Arena) Reuses() uint64 { return a.reuses }

// Mark flags key as reachable during a GC pass; it reports whether the key
// named a live cell (the conservative scanner probes arbitrary bit
// patterns, so misses are expected and harmless).
func (a *Arena) Mark(key uint64) bool {
	if key >= uint64(len(a.vals)) || !a.inUse[key] {
		return false
	}
	a.marked[key] = true
	return true
}

// Sweep frees every unmarked cell and clears all marks, returning the number
// of cells freed and the number still alive.
func (a *Arena) Sweep() (freed, alive int) {
	for k := range a.vals {
		if !a.inUse[k] {
			continue
		}
		if a.marked[k] {
			a.marked[k] = false
			alive++
			continue
		}
		a.inUse[k] = false
		if !a.recycle {
			a.vals[k] = nil // a recycling arena keeps it for the slot's next Alloc
		}
		a.free = append(a.free, uint64(k))
		freed++
	}
	a.live = alive
	return freed, alive
}
