// Package arena provides the key storage behind the counter
// structures: Index, one open-addressing hash index for every key kind,
// and Arena, the append-only byte-slab allocator it interns string keys
// into, addressing them as packed (slab, offset) references. Fixed-size
// keys sit inline in the index's table, which is pointer-free whenever
// the key type is. Together they make a summary's steady-state heap
// O(1) objects in the counter budget m: the slabs, the table and the
// node slabs are a handful of large allocations, against a per-key
// string object plus map bucket — which is what dominates GC scan time
// at registry scale.
//
// Design choices, and why:
//
//   - Regions are size-classed to the next power of two (8 B .. 64 KiB)
//     and recycled through intrusive per-class free lists: a freed
//     region stores the next free reference in its own first four
//     bytes, so eviction-heavy workloads recycle slab space with no
//     auxiliary structures and no allocation. Epoch compaction was the
//     alternative; free lists were chosen because eviction churn is
//     continuous (every SPACESAVING eviction on a full structure) while
//     Reset is rare, so the recycler must ride the update path.
//   - References pack as slab<<16 | offset with 64 KiB slabs: 4 GiB of
//     addressable key bytes per structure, far beyond the int32 node
//     indices the counter slabs already impose. Keys longer than a slab
//     get a dedicated slab (offset 0) and are recycled first-fit.
//   - The index uses linear probing in Robin Hood order with a 32-bit
//     hash tag cached per record (probes compare tags before touching
//     key bytes, and stop at the first record nearer its home than the
//     probe, so a miss — every SPACESAVING eviction starts with one —
//     costs about what a hit does) and tombstone-free backward-shift
//     deletion, so lookup cost does not degrade as evictions churn the
//     table. Growth doubles the slot
//     array with a stop-the-world rehash: the counter structures hold
//     at most m live keys and the index is pre-sized for m at
//     construction, so rehash never fires on the steady-state path —
//     incremental rehash would put its bookkeeping branch on every
//     probe of a zero-alloc hot path to optimize an event that does
//     not occur.
package arena

import (
	"math/bits"
	"unsafe"
)

const (
	slabShift = 16
	// SlabSize is the byte size of one normal slab (oversized keys get a
	// dedicated slab of exactly their length).
	SlabSize = 1 << slabShift
	posMask  = SlabSize - 1

	// refNil marks an empty freelist head.
	refNil = ^uint32(0)

	// minClass keeps every region at least 8 bytes: room for the 4-byte
	// intrusive freelist link plus alignment slack.
	minClass = 3
	maxClass = slabShift
)

// MemStats is the memory footprint of an Index, reported through
// Summary.Memory, /metricsz and the capacity bench tier. The slab
// fields are zero for inline (non-string) keys, whose bytes are part
// of IndexBytes.
type MemStats struct {
	// SlabBytes is the total backing bytes of all slabs (live, free and
	// carve slack).
	SlabBytes uint64
	// Slabs is the slab count.
	Slabs int
	// LiveBytes is the class-rounded bytes of regions holding live keys.
	LiveBytes uint64
	// FreeBytes is the class-rounded bytes of regions on the free lists.
	FreeBytes uint64
	// LiveKeys is the number of stored keys.
	LiveKeys int
	// IndexSlots is the open-addressing table's record count.
	IndexSlots int
	// IndexBytes is the table's backing bytes (inline keys included).
	IndexBytes uint64
}

// Arena is the append-only slab allocator. The zero value is not
// usable (the freelist heads must read refNil, not zero); init must run
// before the first alloc — New does.
type Arena struct {
	slabs [][]byte
	// freeSlabs holds indices of fully recyclable slabs (refilled by
	// Reset); advance consumes it before appending new slabs.
	freeSlabs []int32
	cur       int32 // slab being carved; -1 before the first slab
	curOff    uint32
	// free holds per-class intrusive freelist heads (packed refs).
	free [maxClass + 1]uint32
	// bigFree holds slab indices of freed oversized regions.
	bigFree []int32

	liveKeys  int
	liveBytes uint64 // class-rounded live region bytes
	freeBytes uint64 // class-rounded freelisted region bytes
}

// classFor returns the size class (log2 of the region size) for an
// n-byte key.
//
//hh:noalloc
func classFor(n int) uint {
	if n <= 1<<minClass {
		return minClass
	}
	return uint(bits.Len(uint(n - 1)))
}

// init makes the zero value's freelist heads valid (refNil, not 0).
//
//hh:noalloc
func (a *Arena) init() {
	for c := range a.free {
		a.free[c] = refNil
	}
	a.cur = -1
}

// alloc reserves a region for an n-byte key and returns its packed
// reference. It allocates from the heap only when every recycling path
// is exhausted and a new slab is needed.
//
//hh:noalloc
func (a *Arena) alloc(n int) uint32 {
	if n > SlabSize {
		return a.allocBig(n)
	}
	c := classFor(n)
	size := uint64(1) << c
	if h := a.free[c]; h != refNil {
		a.free[c] = a.loadLink(h)
		a.freeBytes -= size
		a.liveBytes += size
		a.liveKeys++
		return h
	}
	if a.cur < 0 || a.curOff+uint32(size) > SlabSize {
		a.advance()
	}
	r := uint32(a.cur)<<slabShift | a.curOff
	a.curOff += uint32(size)
	a.liveBytes += size
	a.liveKeys++
	return r
}

// release returns an n-byte key's region to its class freelist (or the
// oversized pool). The region's bytes are reused for the freelist link,
// so callers must drop every alias into it first.
//
//hh:noalloc
func (a *Arena) release(r uint32, n int) {
	a.liveKeys--
	if n > SlabSize {
		a.bigFree = append(a.bigFree, int32(r>>slabShift)) //hh:allocok oversized-key bookkeeping; amortized by slice reuse
		size := uint64(len(a.slabs[r>>slabShift]))
		a.liveBytes -= size
		a.freeBytes += size
		return
	}
	c := classFor(n)
	size := uint64(1) << c
	a.liveBytes -= size
	a.freeBytes += size
	a.storeLink(r, a.free[c])
	a.free[c] = r
}

// advance moves carving to a recycled slab, or appends a fresh one —
// the only heap allocation of the steady-state update path.
//
//hh:noalloc
func (a *Arena) advance() {
	if len(a.freeSlabs) > 0 {
		a.cur = a.freeSlabs[len(a.freeSlabs)-1]
		a.freeSlabs = a.freeSlabs[:len(a.freeSlabs)-1]
		a.curOff = 0
		return
	}
	a.slabs = append(a.slabs, make([]byte, SlabSize)) //hh:allocok slab growth is the one permitted allocation
	a.cur = int32(len(a.slabs) - 1)
	a.curOff = 0
}

// allocBig reserves a dedicated slab for a key longer than SlabSize,
// reusing a freed oversized slab first-fit when one is large enough.
//
//hh:noalloc
func (a *Arena) allocBig(n int) uint32 {
	for i, idx := range a.bigFree {
		if len(a.slabs[idx]) >= n {
			a.bigFree[i] = a.bigFree[len(a.bigFree)-1]
			a.bigFree = a.bigFree[:len(a.bigFree)-1]
			size := uint64(len(a.slabs[idx]))
			a.freeBytes -= size
			a.liveBytes += size
			a.liveKeys++
			return uint32(idx) << slabShift
		}
	}
	a.slabs = append(a.slabs, make([]byte, n)) //hh:allocok oversized keys get a dedicated slab by contract
	a.liveBytes += uint64(n)
	a.liveKeys++
	return uint32(len(a.slabs)-1) << slabShift
}

// loadLink reads the intrusive freelist link stored in a freed region.
//
//hh:noalloc
func (a *Arena) loadLink(r uint32) uint32 {
	b := a.slabs[r>>slabShift][r&posMask:]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// storeLink writes the intrusive freelist link into a freed region.
//
//hh:noalloc
func (a *Arena) storeLink(r, next uint32) {
	b := a.slabs[r>>slabShift][r&posMask:]
	b[0], b[1], b[2], b[3] = byte(next), byte(next>>8), byte(next>>16), byte(next>>24)
}

// bytes returns the writable region behind a reference.
//
//hh:noalloc
func (a *Arena) bytes(r uint32, n int) []byte {
	pos := int(r & posMask)
	return a.slabs[r>>slabShift][pos : pos+n]
}

// view returns a string aliasing the region — valid until the region
// is released or the arena reset.
//
//hh:noalloc
func (a *Arena) view(r uint32, n int) string {
	if n == 0 {
		return ""
	}
	return unsafe.String(&a.slabs[r>>slabShift][r&posMask], n)
}

// Reset drops every region while retaining the slabs for reuse, so a
// reset structure keeps updating allocation-free (epoch rotation relies
// on this, exactly like the counter slabs' own Reset).
//
//hh:noalloc
func (a *Arena) Reset() {
	for c := range a.free {
		a.free[c] = refNil
	}
	a.bigFree = a.bigFree[:0]
	a.freeSlabs = a.freeSlabs[:0]
	for i := range a.slabs {
		a.freeSlabs = append(a.freeSlabs, int32(i)) //hh:allocok grows once per slab high-water mark, then reuses
	}
	a.cur = -1
	a.curOff = 0
	a.liveKeys = 0
	a.liveBytes = 0
	a.freeBytes = 0
}

// Mem reports the arena's slab footprint (index fields are zero; the
// owning index fills them).
func (a *Arena) Mem() MemStats {
	var total uint64
	for _, s := range a.slabs {
		total += uint64(len(s))
	}
	return MemStats{
		SlabBytes: total,
		Slabs:     len(a.slabs),
		LiveBytes: a.liveBytes,
		FreeBytes: a.freeBytes,
		LiveKeys:  a.liveKeys,
	}
}
