package arena

import (
	"math/bits"
	"reflect"
	"strings"
	"unsafe"

	"repro/internal/hashing"
)

// empty is the val of an unoccupied table record; stored values are
// counter-slab node indices, never negative.
const empty = int32(-1)

// fib is the 64-bit Fibonacci multiplier tagOf folds hashes with.
const fib = 0x9e3779b97f4a7c15

// rec is one open-addressing table record: the hash tag (probes compare
// it before touching the key), the stored value, and the key payload —
// an arena reference for string kinds, the key itself otherwise.
type rec[P any] struct {
	tag uint32
	val int32 // empty marks the record unoccupied
	key P
}

// strRef locates an interned string key in the arena.
type strRef struct {
	off  uint32
	klen uint32
}

// Index is the key → counter-slot mapping behind the counter
// structures (internal/spacesaving, internal/frequent), one concrete
// type for every key kind:
//
//   - string kinds are interned into the arena's byte slabs; the table
//     holds (offset, length) references, Put hands back a slab-aliased
//     view, and exported keys must pass through Materialize;
//   - every other kind is stored inline in the table records, which
//     the runtime allocates pointer-free whenever K itself is.
//
// Either way the table is one flat power-of-two array probed linearly
// in Robin Hood order (place), with tombstone-free backward-shift
// deletion and stop-the-world doubling (see the package comment for
// why not incremental). Keys are hashed by the closure handed to New —
// the owning summary's key hasher — so a hash the caller already
// computed for shard placement is valid here (GetHashed, PutHashed)
// and a key is hashed once.
type Index[K comparable] struct {
	hash func(K) uint64 //hh:noalloc
	str  bool           // K is a string kind: keys live in ar, records in strs
	strs []rec[strRef]
	ents []rec[K]
	ar   Arena
	mask uint64
	// shift maps a tag to its home record: tag >> shift.
	shift  uint
	live   int
	growAt int // live threshold (3/4 load) that triggers doubling
}

// StringIndex is the string-keyed Index.
type StringIndex = Index[string]

// New builds an index hashing keys with hash, pre-sized so m live keys
// stay under the 3/4 load factor — growth never fires for a structure
// that holds at most m keys.
func New[K comparable](m int, hash func(K) uint64) *Index[K] {
	x := new(Index[K])
	x.Init(m, hash)
	return x
}

// Init (re)builds x in place as New(m, hash) would, for structures
// that embed their index by value — one heap object fewer per
// structure, one pointer hop fewer per probe.
func (x *Index[K]) Init(m int, hash func(K) uint64) {
	*x = Index[K]{
		hash: hash, //hh:allocok hash is a hashing.KeyHasher closure; its branches call only mix64/fnv1a/maphash.Comparable
		str:  reflect.TypeFor[K]().Kind() == reflect.String,
	}
	x.ar.init()
	n, _ := IndexFootprint(m)
	x.size(n)
}

// NewStringIndex builds a string index hashing with
// hashing.KeyHasher[string](seed), pre-sized for m live keys.
func NewStringIndex(m int, seed uint64) *StringIndex {
	return New(m, hashing.KeyHasher[string](seed))
}

// size installs an empty table of n records (n a power of two).
//
//hh:noalloc
func (x *Index[K]) size(n int) {
	if x.str {
		x.strs = make([]rec[strRef], n) //hh:allocok power-of-two table; pre-sizing keeps this off the steady-state path
		clearRecs(x.strs)
	} else {
		x.ents = make([]rec[K], n) //hh:allocok power-of-two table; pre-sizing keeps this off the steady-state path
		clearRecs(x.ents)
	}
	x.mask = uint64(n - 1)
	x.shift = 32 - uint(bits.TrailingZeros(uint(n)))
	x.growAt = n * 3 / 4
}

// tagOf folds a key hash into its 32-bit tag. The Fibonacci multiply
// makes the tag's high bits — the home position — depend on every hash
// bit: a sharded summary's keys all share h mod p (the shard), so
// homing on raw low bits would crowd each shard's index into 1/p of
// its records, and FNV-1a's own high bits mix the last key bytes
// poorly.
//
//hh:noalloc
func tagOf(h uint64) uint32 { return uint32((h * fib) >> 32) }

// asString reinterprets a string-kind K as string without boxing; asK
// is the inverse. Callers guarantee K's kind (x.str).
//
//hh:noalloc
func asString[K comparable](k K) string { return *(*string)(unsafe.Pointer(&k)) }

//hh:noalloc
func asK[K comparable](s string) K { return *(*K)(unsafe.Pointer(&s)) }

// Hash returns the key hash this index probes with.
//
//hh:noalloc
func (x *Index[K]) Hash(k K) uint64 { return x.hash(k) }

// Get returns the value stored for k.
//
//hh:noalloc
func (x *Index[K]) Get(k K) (int32, bool) {
	if x.live == 0 {
		return 0, false
	}
	return x.GetHashed(k, x.hash(k))
}

// GetHashed is Get with h = Hash(k) precomputed by the caller: the
// batch kernels hand down the partition hash, so a probe touches only
// the table and the key bytes.
//
//hh:noalloc
func (x *Index[K]) GetHashed(k K, h uint64) (int32, bool) {
	if x.live == 0 {
		return 0, false
	}
	tag := tagOf(h)
	i := uint64(tag >> x.shift)
	if x.str {
		s := asString(k)
		for d := uint64(0); ; d++ {
			r := &x.strs[i]
			if r.val == empty || (i-uint64(r.tag>>x.shift))&x.mask < d {
				return 0, false
			}
			if r.tag == tag && int(r.key.klen) == len(s) && x.ar.view(r.key.off, len(s)) == s {
				return r.val, true
			}
			i = (i + 1) & x.mask
		}
	}
	for d := uint64(0); ; d++ {
		r := &x.ents[i]
		if r.val == empty || (i-uint64(r.tag>>x.shift))&x.mask < d {
			return 0, false
		}
		if r.tag == tag && r.key == k {
			return r.val, true
		}
		i = (i + 1) & x.mask
	}
}

// Put stores k → v (v >= 0) and returns the retained key: a
// slab-aliased view for string kinds, k itself otherwise. The caller
// must store the returned key, not k. Re-putting a stored key
// overwrites its value and returns the existing key (no second copy).
//
//hh:noalloc
func (x *Index[K]) Put(k K, v int32) K { return x.PutHashed(k, x.hash(k), v) }

// PutHashed is Put with h = Hash(k) precomputed by the caller.
//
//hh:noalloc
func (x *Index[K]) PutHashed(k K, h uint64, v int32) K {
	if x.live >= x.growAt {
		x.grow()
	}
	tag := tagOf(h)
	i := uint64(tag >> x.shift)
	d := uint64(0)
	if x.str {
		s := asString(k)
		for ; ; d++ {
			r := &x.strs[i]
			if r.val == empty || (i-uint64(r.tag>>x.shift))&x.mask < d {
				break
			}
			if r.tag == tag && int(r.key.klen) == len(s) && x.ar.view(r.key.off, len(s)) == s {
				r.val = v
				return asK[K](x.ar.view(r.key.off, len(s)))
			}
			i = (i + 1) & x.mask
		}
		off := x.ar.alloc(len(s))
		copy(x.ar.bytes(off, len(s)), s)
		place(x.strs, i, d, rec[strRef]{tag: tag, val: v, key: strRef{off: off, klen: uint32(len(s))}}, x.shift)
		x.live++
		return asK[K](x.ar.view(off, len(s)))
	}
	for ; ; d++ {
		r := &x.ents[i]
		if r.val == empty || (i-uint64(r.tag>>x.shift))&x.mask < d {
			break
		}
		if r.tag == tag && r.key == k {
			r.val = v
			return r.key
		}
		i = (i + 1) & x.mask
	}
	place(x.ents, i, d, rec[K]{tag: tag, val: v, key: k}, x.shift)
	x.live++
	return k
}

// Delete removes k, recycling its arena region; every alias of the
// retained key becomes invalid.
//
//hh:noalloc
func (x *Index[K]) Delete(k K) {
	if x.live == 0 {
		return
	}
	tag := tagOf(x.hash(k))
	i := uint64(tag >> x.shift)
	if x.str {
		s := asString(k)
		for d := uint64(0); ; d++ {
			r := &x.strs[i]
			if r.val == empty || (i-uint64(r.tag>>x.shift))&x.mask < d {
				return
			}
			if r.tag == tag && int(r.key.klen) == len(s) && x.ar.view(r.key.off, len(s)) == s {
				break
			}
			i = (i + 1) & x.mask
		}
		// The probe above finished with the key bytes; release may now
		// overwrite them with the freelist link.
		x.ar.release(x.strs[i].key.off, int(x.strs[i].key.klen))
		removeAt(x.strs, i, x.shift)
	} else {
		for d := uint64(0); ; d++ {
			r := &x.ents[i]
			if r.val == empty || (i-uint64(r.tag>>x.shift))&x.mask < d {
				return
			}
			if r.tag == tag && r.key == k {
				break
			}
			i = (i + 1) & x.mask
		}
		removeAt(x.ents, i, x.shift)
	}
	x.live--
}

// place stores r, a key known to be absent, at record i, which its
// probe reached at distance d — the first empty record, or the first
// whose own distance from home is below d. Robin Hood order: the
// displaced record moves on under the same rule, so every record sits
// no farther from home than any record it passed. That order is what
// lets a probe stop at the first record closer to home than the probe
// itself (a miss costs about as much as a hit) and deletion stop at
// the first record already at home.
//
//hh:noalloc
func place[P any](t []rec[P], i, d uint64, r rec[P], shift uint) {
	mask := uint64(len(t) - 1)
	for {
		c := &t[i]
		if c.val == empty {
			*c = r
			return
		}
		if cd := (i - uint64(c.tag>>shift)) & mask; cd < d {
			r, *c = *c, r
			d = cd
		}
		i = (i + 1) & mask
		d++
	}
}

// removeAt empties record i by backward shift: the records after it
// move back one place up to the first empty record or the first one
// already at home, which keeps the Robin Hood order without
// tombstones, so the table never degrades under eviction churn.
//
//hh:noalloc
func removeAt[P any](t []rec[P], i uint64, shift uint) {
	mask := uint64(len(t) - 1)
	for {
		j := (i + 1) & mask
		r := t[j]
		if r.val == empty || uint64(r.tag>>shift) == j {
			break
		}
		t[i] = r
		i = j
	}
	t[i] = rec[P]{val: empty}
}

// clearRecs marks every record empty (zeroing keys, so an inline
// pointer-bearing key stops pinning its referent).
//
//hh:noalloc
func clearRecs[P any](t []rec[P]) {
	for i := range t {
		t[i] = rec[P]{val: empty}
	}
}

// rehash places every occupied record of old into the empty table t.
//
//hh:noalloc
func rehash[P any](t, old []rec[P], shift uint) {
	for _, r := range old {
		if r.val != empty {
			place(t, uint64(r.tag>>shift), 0, r, shift)
		}
	}
}

// grow doubles the table and rehashes every live record by its stored
// tag — stop-the-world, cold by construction (see New).
//
//hh:noalloc
func (x *Index[K]) grow() {
	strs, ents := x.strs, x.ents
	x.size(2 * int(x.mask+1))
	if x.str {
		rehash(x.strs, strs, x.shift)
	} else {
		rehash(x.ents, ents, x.shift)
	}
}

// Len returns the number of stored keys.
//
//hh:noalloc
func (x *Index[K]) Len() int { return x.live }

// Reset empties the index and arena, retaining both the table and the
// slabs for allocation-free reuse.
//
//hh:noalloc
func (x *Index[K]) Reset() {
	clearRecs(x.strs)
	clearRecs(x.ents)
	x.live = 0
	x.ar.Reset()
}

// Materialize copies a retained key for export across the query or
// wire boundary: string kinds alias the slabs and must outlive the
// region, every other kind is returned as is. It is the one annotated
// path allowed to allocate.
//
//hh:noalloc
func (x *Index[K]) Materialize(k K) K {
	if !x.str {
		return k
	}
	return asK[K](strings.Clone(asString(k))) //hh:allocok keys materialize at the query/wire boundary by contract
}

// Mem reports the index footprint: the arena slabs plus the table.
// Inline kinds have no slabs; their keys are part of IndexBytes.
func (x *Index[K]) Mem() MemStats {
	if !x.str {
		return MemStats{
			LiveKeys:   x.live,
			IndexSlots: len(x.ents),
			IndexBytes: uint64(len(x.ents)) * uint64(unsafe.Sizeof(rec[K]{})),
		}
	}
	ms := x.ar.Mem()
	ms.IndexSlots = len(x.strs)
	ms.IndexBytes = uint64(len(x.strs)) * uint64(unsafe.Sizeof(rec[strRef]{}))
	return ms
}

// RegionSize returns the class-rounded slab bytes a key of n bytes
// occupies (a dedicated slab of exactly n bytes when the key outsizes
// a slab). Exported so sizing tools (hhstat) can estimate a decoded
// blob's would-be serving footprint without building an index.
func RegionSize(n int) int {
	if n > SlabSize {
		return n
	}
	return 1 << classFor(n)
}

// IndexFootprint returns the record count and backing bytes of a
// string index pre-sized for m keys — New's sizing rule, exported for
// the same estimators.
func IndexFootprint(m int) (slots int, bytes uint64) {
	n := 8
	for n*3/4 <= m {
		n <<= 1
	}
	return n, uint64(n) * uint64(unsafe.Sizeof(rec[strRef]{}))
}
