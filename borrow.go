package heavyhitters

import (
	"fmt"
	"hash/maphash"
	"reflect"
	"strings"
	"unsafe"
)

// Borrowed-key support (WithBorrowedKeys): the core structures retain
// keys indefinitely — in counter slabs, map keys, heap entries — so a
// caller that reuses the backing memory of its keys (a zero-copy frame
// decoder aliasing strings into a connection buffer) would corrupt the
// summary. The fix is a clone hook threaded into every structure at
// construction: each retention site routes the key through the hook
// the moment it decides to store it. Hits, increments and rejected
// candidates never clone, so for skewed streams only the insertion
// tail (a small fraction of arrivals) pays.
//
// Arena interplay: the unit-weight SPACESAVING and FREQUENT structures
// take no clone hook at all. Their key index (internal/arena) interns
// string keys straight into its slabs and the structure stores the
// slab-aliased view, so a borrowed key is copied exactly once — from
// the caller's buffer into the slab — with no intermediate heap string
// and no clone cache; pointer-free keys are held by value. The hook
// below serves the map-keyed structures: the weighted variants,
// LOSSYCOUNTING and the sketch candidate tracker. newBackend still
// builds it for every borrowed-key composition, which is also what
// rejects key types that cannot be cloned.

// newKeyCloner builds the per-structure clone hook for key type K, or
// nil when K needs no cloning (pointer-free types own their bytes).
// m is the structure's counter budget; it sizes the string dedup
// cache. It panics for key types that cannot be cloned generically —
// WithBorrowedKeys documents the supported set.
func newKeyCloner[K comparable](m int) func(K) K {
	var zero K
	t := reflect.TypeOf(zero)
	if t.Kind() == reflect.String {
		// Any string-kind K has the representation of a string, so the
		// pointer reinterpretation below is a no-op view change — it
		// avoids boxing K into an interface on every clone.
		c := newStringCloneCache(m)
		return func(k K) K {
			s := c.clone(*(*string)(unsafe.Pointer(&k)))
			return *(*K)(unsafe.Pointer(&s))
		}
	}
	if pointerFree(t) {
		return nil // value types carry no external memory; nothing to clone
	}
	panic(fmt.Sprintf("heavyhitters: WithBorrowedKeys cannot clone key type %v (supported: strings and pointer-free types)", t))
}

// pointerFree reports whether values of t embed no references to
// memory outside the value itself.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Uintptr, reflect.Float32, reflect.Float64,
		reflect.Complex64, reflect.Complex128:
		return true
	case reflect.Array:
		return pointerFree(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// stringCloneCache deduplicates clones of recurring keys. Insertions
// under a skewed stream concentrate on a working set of tail keys that
// cycle in and out of the summary; without a cache every re-insertion
// would allocate a fresh copy of a key that was cloned before. A
// direct-mapped table keyed by the string's hash remembers the last
// clone per slot, so a recurring key is usually copied once across its
// whole tenure in the stream.
//
// The cache is an optimization only: a collision or an overlong key
// falls back to a plain copy and stays correct. It is written solely
// from clone, which runs under the owning structure's write path (the
// structures themselves are single-writer; the sharded and concurrent
// tiers already serialize writers per structure), so it needs no
// locking of its own.
type stringCloneCache struct {
	seed  maphash.Seed
	mask  uint64
	slots []string
}

// Cache geometry: slots scale with the counter budget (the insertion
// working set tracks the tail beyond the m tracked keys), bounded so a
// tiny summary still dedups usefully and a huge one doesn't pin
// unbounded memory. Keys longer than maxCachedKeyLen are cloned
// directly — caching them would let a few giant keys pin cache memory
// for no dedup benefit.
const (
	minCloneCacheSlots = 1 << 12
	maxCloneCacheSlots = 1 << 18
	maxCachedKeyLen    = 256
)

func newStringCloneCache(m int) *stringCloneCache {
	slots := minCloneCacheSlots
	for slots < 128*m && slots < maxCloneCacheSlots {
		slots <<= 1
	}
	return &stringCloneCache{seed: maphash.MakeSeed(), mask: uint64(slots - 1)}
}

// clone returns a copy of s that does not share backing memory with it
// (possibly a previously made copy of an equal string).
func (c *stringCloneCache) clone(s string) string {
	if len(s) > maxCachedKeyLen {
		return strings.Clone(s)
	}
	if c.slots == nil {
		// Allocated on first use so summaries that never see borrowed
		// inserts (or are built and discarded) pay nothing.
		c.slots = make([]string, c.mask+1)
	}
	i := maphash.String(c.seed, s) & c.mask
	if c.slots[i] == s {
		return c.slots[i]
	}
	cs := strings.Clone(s)
	c.slots[i] = cs
	return cs
}
