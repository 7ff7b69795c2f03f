package heavyhitters

// Memory accounting for the arena-indexed structures: the
// Summary.Memory walk down through the composition tiers. Every
// unit-weight SPACESAVING and FREQUENT structure keeps its keys in the
// arena index whatever the key kind (strings interned in slabs, other
// kinds inline in the table), so it always reports. Each tier that can
// attribute key storage sums the arena.MemStats of its children —
// shards add their slots under the shard locks, windows add every
// epoch of the ring (retired epochs retain their slabs and tables, so
// they are real footprint), and the concurrency tier serializes
// against writers exactly as a snapshot capture would. Backends whose
// key storage is a plain Go map (weighted/decayed cores,
// LOSSYCOUNTING, sketches) report false: their footprint is owned by
// the runtime heap and Memory has nothing exact to say about it.

import "repro/internal/arena"

// MemoryStats is the steady-state key-storage footprint of a summary:
// the slab bytes holding interned string keys plus the open-addressing
// index table over the tracked keys (inline keys of other kinds are
// part of the table). Sharded and windowed summaries
// report the sum over all shards and all epochs (including retired
// epochs, whose slabs are retained for reuse). All other per-structure
// state (the counter node/group slabs) is a fixed function of the
// capacity m and is not included here.
type MemoryStats struct {
	// ArenaBytes is the total slab backing bytes — the number that
	// grows when keys outsize the recycled regions. Zero for non-string
	// keys, which have no slabs.
	ArenaBytes uint64
	// ArenaSlabs is the slab count behind ArenaBytes.
	ArenaSlabs int
	// LiveBytes is the class-rounded bytes of regions holding live
	// keys; FreeBytes the class-rounded bytes parked on the free lists
	// awaiting reuse. ArenaBytes − LiveBytes − FreeBytes is carve
	// slack: the tail of the current slab not yet handed out.
	LiveBytes uint64
	FreeBytes uint64
	// LiveKeys is the number of tracked keys in the index.
	LiveKeys int
	// IndexSlots and IndexBytes size the open-addressing index tables,
	// inline keys included.
	IndexSlots int
	IndexBytes uint64
}

// add folds one structure's arena stats into the aggregate.
func (m *MemoryStats) add(s arena.MemStats) {
	m.ArenaBytes += s.SlabBytes
	m.ArenaSlabs += s.Slabs
	m.LiveBytes += s.LiveBytes
	m.FreeBytes += s.FreeBytes
	m.LiveKeys += s.LiveKeys
	m.IndexSlots += s.IndexSlots
	m.IndexBytes += s.IndexBytes
}

// merge folds a child tier's aggregate into this one.
func (m *MemoryStats) merge(s MemoryStats) {
	m.ArenaBytes += s.ArenaBytes
	m.ArenaSlabs += s.ArenaSlabs
	m.LiveBytes += s.LiveBytes
	m.FreeBytes += s.FreeBytes
	m.LiveKeys += s.LiveKeys
	m.IndexSlots += s.IndexSlots
	m.IndexBytes += s.IndexBytes
}

// BytesPerTrackedKey is ArenaBytes+IndexBytes amortized over the live
// keys — the capacity-planning number OPERATIONS.md sizes hosts with
// (zero when nothing is tracked yet).
func (m MemoryStats) BytesPerTrackedKey() float64 {
	if m.LiveKeys == 0 {
		return 0
	}
	return float64(m.ArenaBytes+m.IndexBytes) / float64(m.LiveKeys)
}

// memReporter is the optional backend capability behind Summary.Memory:
// implemented by the tiers that can attribute their key storage to
// arena indexes. Backends without it (weighted, decayed, sketch) have
// map- or slice-owned state and report no footprint.
type memReporter interface {
	memory() (MemoryStats, bool)
}

// footprinter is what the arena-indexed counter structures
// (SPACESAVING, FREQUENT) expose.
type footprinter interface {
	MemoryFootprint() arena.MemStats
}

func (s *summary[K]) Memory() (MemoryStats, bool) {
	if mr, ok := s.be.(memReporter); ok {
		return mr.memory()
	}
	return MemoryStats{}, false
}

func (b *unitBackend[K]) memory() (MemoryStats, bool) {
	fp, ok := b.alg.(footprinter)
	if !ok {
		return MemoryStats{}, false
	}
	var m MemoryStats
	m.add(fp.MemoryFootprint())
	return m, true
}

// memory sums the shard slots under their locks (one at a time, the
// same consistency the aggregate queries settle for).
func (b *shardedBackend[K]) memory() (MemoryStats, bool) {
	var m MemoryStats
	any := false
	for i := range b.slots {
		sl := &b.slots[i]
		sl.mu.Lock()
		if mr, ok := sl.be.(memReporter); ok {
			if sm, ok := mr.memory(); ok {
				any = true
				m.merge(sm)
			}
		}
		sl.mu.Unlock()
	}
	return m, any
}

// memory sums every epoch of the ring — retired epochs keep their
// slabs (the slab-retaining Reset is what makes rotation free), so the
// whole ring is the honest footprint.
func (b *windowBackend[K]) memory() (MemoryStats, bool) {
	var m MemoryStats
	any := false
	for _, ep := range b.ring {
		if mr, ok := ep.(memReporter); ok {
			if sm, ok := mr.memory(); ok {
				any = true
				m.merge(sm)
			}
		}
	}
	return m, any
}

// memory serializes against writers the way a snapshot capture does:
// a sharded inner locks its own shards, anything else walks under the
// write mutex.
func (t *concurrentTier[K]) memory() (MemoryStats, bool) {
	mr, ok := t.inner.(memReporter)
	if !ok {
		return MemoryStats{}, false
	}
	if t.selfLocked {
		return mr.memory()
	}
	t.wmu.Lock()
	defer t.wmu.Unlock()
	return mr.memory()
}
