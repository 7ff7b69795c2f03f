package arena

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/hashing"
)

// TestClassFor pins the size-class geometry: power-of-two rounding with
// an 8-byte floor (the freelist link needs 4 bytes).
func TestClassFor(t *testing.T) {
	cases := map[int]uint{0: 3, 1: 3, 8: 3, 9: 4, 16: 4, 17: 5, 255: 8, 256: 8, 257: 9, SlabSize: 16}
	for n, want := range cases {
		if got := classFor(n); got != want {
			t.Errorf("classFor(%d) = %d, want %d", n, got, want)
		}
	}
}

// TestStringIndexBasic drives the fundamental operations, including
// empty-string keys and value overwrites.
func TestStringIndexBasic(t *testing.T) {
	x := NewStringIndex(16, 1)
	if _, ok := x.Get("a"); ok {
		t.Fatal("Get on empty index reported a hit")
	}
	ka := x.Put("a", 1)
	if ka != "a" {
		t.Fatalf("Put returned %q, want \"a\"", ka)
	}
	if v, ok := x.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	x.Put("a", 2)
	if v, _ := x.Get("a"); v != 2 {
		t.Fatalf("overwrite: Get(a) = %d, want 2", v)
	}
	if k := x.Put("", 3); k != "" {
		t.Fatalf("Put(\"\") returned %q", k)
	}
	if v, ok := x.Get(""); !ok || v != 3 {
		t.Fatalf("Get(\"\") = %d, %v", v, ok)
	}
	if x.Len() != 2 {
		t.Fatalf("Len = %d, want 2", x.Len())
	}
	x.Delete("a")
	if _, ok := x.Get("a"); ok {
		t.Fatal("Get after Delete reported a hit")
	}
	x.Delete("never-inserted") // must be a no-op
	if x.Len() != 1 {
		t.Fatalf("Len = %d, want 1", x.Len())
	}
	x.Reset()
	if x.Len() != 0 {
		t.Fatalf("Len after Reset = %d", x.Len())
	}
	if _, ok := x.Get(""); ok {
		t.Fatal("Get after Reset reported a hit")
	}
}

// TestStringIndexAliasStability pins the retained-key contract: the
// view Put returns stays equal to the key while the key is live, even
// as unrelated churn recycles other regions.
func TestStringIndexAliasStability(t *testing.T) {
	x := NewStringIndex(8, 7)
	keep := x.Put("long-lived-key", 42)
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("churn-%d", i)
		x.Put(k, int32(i))
		x.Delete(k)
	}
	if keep != "long-lived-key" {
		t.Fatalf("retained view corrupted by churn: %q", keep)
	}
	if v, ok := x.Get("long-lived-key"); !ok || v != 42 {
		t.Fatalf("Get = %d, %v", v, ok)
	}
}

// TestStringIndexBigKeys covers keys longer than a slab: dedicated
// slabs, first-fit recycling.
func TestStringIndexBigKeys(t *testing.T) {
	x := NewStringIndex(8, 3)
	big := strings.Repeat("x", SlabSize+100)
	bigger := strings.Repeat("y", 2*SlabSize)
	x.Put(big, 1)
	if v, ok := x.Get(big); !ok || v != 1 {
		t.Fatalf("Get(big) = %d, %v", v, ok)
	}
	x.Delete(big)
	slabs := x.Mem().Slabs
	// A same-size big key must reuse the freed dedicated slab.
	x.Put(big, 2)
	if got := x.Mem().Slabs; got != slabs {
		t.Fatalf("same-size big key did not recycle: %d slabs, had %d", got, slabs)
	}
	x.Put(bigger, 3)
	for _, k := range []string{big, bigger} {
		if _, ok := x.Get(k); !ok {
			t.Fatalf("big key %d bytes lost", len(k))
		}
	}
}

// pair is a key kind the hasher serves through its maphash fallback.
type pair [2]uint64

// Key generators for the oracle harness: 64 distinct keys per kind.
// The string keys vary wildly in length, exercising several size
// classes; all kinds collide on home records at the tiny start size.
func strKey(b byte) string {
	n := int(b % 64)
	return strings.Repeat("k", n%7) + fmt.Sprintf("key-%d-%s", n, strings.Repeat("pad", n%5))
}

func u64Key(b byte) uint64 { return uint64(b%64) * 0x9e3779b97f4a7c15 }

func pairKey(b byte) pair { return pair{uint64(b % 64), uint64(b%64) << 32} }

// applyOps drives an index and a map[K]int32 oracle through a
// randomized op sequence and fails on the first divergence. Keys
// returned by Put are checked for equality (string kinds alias the
// arena).
func applyOps[K comparable](t *testing.T, x *Index[K], keyFor func(byte) K, ops []byte) {
	t.Helper()
	oracle := map[K]int32{}
	for i, op := range ops {
		k := keyFor(op)
		switch op % 4 {
		case 0, 1: // insert/overwrite twice as likely as delete
			v := int32(i)
			ret := x.Put(k, v)
			if ret != k {
				t.Fatalf("op %d: Put(%v) returned %v", i, k, ret)
			}
			oracle[k] = v
		case 2:
			x.Delete(k)
			delete(oracle, k)
		case 3:
			if op%8 == 3 {
				x.Reset()
				clear(oracle)
			}
		}
		if x.Len() != len(oracle) {
			t.Fatalf("op %d: Len = %d, oracle %d", i, x.Len(), len(oracle))
		}
	}
	for k, want := range oracle {
		if got, ok := x.Get(k); !ok || got != want {
			t.Fatalf("final: Get(%v) = %d, %v; oracle %d", k, got, ok, want)
		}
	}
	// Probe every key the generator can name: absent ones must miss.
	for b := 0; b < 64; b++ {
		k := keyFor(byte(b))
		if _, inOracle := oracle[k]; !inOracle {
			if _, ok := x.Get(k); ok {
				t.Fatalf("phantom key %v", k)
			}
		}
	}
	if ms := x.Mem(); ms.LiveKeys != len(oracle) {
		t.Fatalf("Mem().LiveKeys = %d, oracle %d", ms.LiveKeys, len(oracle))
	}
}

// TestStringIndexOracle is the property test: randomized
// insert/overwrite/delete/Reset sequences against a map[string]int32
// oracle, at a deliberately tiny initial size so growth rehashes fire.
func TestStringIndexOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 50; round++ {
		ops := make([]byte, 2000)
		rng.Read(ops)
		x := NewStringIndex(1, uint64(round)) // min-size: forces doubling
		applyOps(t, x, strKey, ops)
	}
}

// TestInlineIndexOracle runs the same property test over the inline
// key kinds: uint64 (the Fibonacci-mix hash) and a pair array (the
// maphash fallback).
func TestInlineIndexOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for round := 0; round < 50; round++ {
		ops := make([]byte, 2000)
		rng.Read(ops)
		applyOps(t, New(1, hashing.KeyHasher[uint64](uint64(round))), u64Key, ops)
		applyOps(t, New(1, hashing.KeyHasher[pair](uint64(round))), pairKey, ops)
	}
}

// FuzzIndexOps lets the fuzzer drive the oracle harness over all three
// key kinds with the same op sequence.
func FuzzIndexOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 7, 0, 0, 2})
	f.Add([]byte("insert-delete-insert"))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		applyOps(t, NewStringIndex(1, 99), strKey, ops)
		applyOps(t, New(1, hashing.KeyHasher[uint64](99)), u64Key, ops)
		applyOps(t, New(1, hashing.KeyHasher[pair](99)), pairKey, ops)
	})
}

// TestArenaBoundedGrowth is the eviction-churn invariant: an
// eviction-heavy workload (every insert followed by a delete, Zipf-ish
// mix of key lengths, vastly more distinct keys than live slots) must
// recycle regions through the free lists instead of growing the slabs.
func TestArenaBoundedGrowth(t *testing.T) {
	const live = 1024
	x := NewStringIndex(live, 5)
	rng := rand.New(rand.NewSource(2))
	key := func(i int) string {
		return fmt.Sprintf("%s-%d", strings.Repeat("p", rng.Intn(48)), i)
	}
	// Fill to the live bound, tracking the live set in a ring so every
	// delete names a key that is actually stored.
	ring := make([]string, live)
	for i := range ring {
		ring[i] = key(i)
		x.Put(ring[i], int32(i))
	}
	churn := func(n int) {
		for i := 0; i < n; i++ {
			old := ring[i%live]
			ring[i%live] = key(rng.Int())
			x.Put(ring[i%live], int32(i))
			x.Delete(old)
		}
	}
	churn(20 * live)
	after := x.Mem()
	churn(200 * live)
	final := x.Mem()
	if final.SlabBytes > after.SlabBytes*2 {
		t.Fatalf("arena grew unboundedly under eviction churn: %d -> %d slab bytes", after.SlabBytes, final.SlabBytes)
	}
	if final.LiveKeys != live {
		t.Fatalf("LiveKeys = %d, want %d", final.LiveKeys, live)
	}
	if final.LiveBytes+final.FreeBytes > final.SlabBytes {
		t.Fatalf("accounting: live %d + free %d > slabs %d", final.LiveBytes, final.FreeBytes, final.SlabBytes)
	}
}

// TestArenaResetReuse pins the slab-retaining Reset: a reset index
// refills without growing its backing.
func TestArenaResetReuse(t *testing.T) {
	x := NewStringIndex(512, 11)
	fill := func() {
		for i := 0; i < 512; i++ {
			x.Put(fmt.Sprintf("key-%d-%s", i, strings.Repeat("f", i%33)), int32(i))
		}
	}
	fill()
	x.Reset()
	before := x.Mem().SlabBytes
	for round := 0; round < 5; round++ {
		fill()
		x.Reset()
	}
	if got := x.Mem().SlabBytes; got != before {
		t.Fatalf("Reset did not retain/reuse slabs: %d -> %d bytes", before, got)
	}
}

// TestIndexKeyKinds pins the storage split: every string kind (named
// ones too) is interned into slabs and exported through Materialize as
// an owned copy; every other kind sits inline, slab-free.
func TestIndexKeyKinds(t *testing.T) {
	type tenant string
	ts := New(8, hashing.KeyHasher[tenant](1))
	ret := ts.Put(tenant("t0"), 5)
	if ret != "t0" {
		t.Fatalf("Put returned %q", ret)
	}
	if v, ok := ts.Get(tenant("t0")); !ok || v != 5 {
		t.Fatalf("Get = %d, %v", v, ok)
	}
	if m := ts.Materialize(ret); m != "t0" || unsafe.StringData(string(m)) == unsafe.StringData(string(ret)) {
		t.Fatalf("Materialize = %q, want an owned copy", m)
	}
	if ms := ts.Mem(); ms.Slabs != 1 || ms.LiveKeys != 1 {
		t.Fatalf("named string kind not interned: %+v", ms)
	}

	us := New(8, hashing.KeyHasher[uint64](1))
	if k := us.Put(7, 1); k != 7 {
		t.Fatalf("Put returned %d", k)
	}
	if k := us.Materialize(7); k != 7 {
		t.Fatalf("Materialize = %d", k)
	}
	ms := us.Mem()
	if ms.Slabs != 0 || ms.SlabBytes != 0 || ms.LiveKeys != 1 || ms.IndexBytes != uint64(ms.IndexSlots)*16 {
		t.Fatalf("uint64 keys not inline: %+v", ms)
	}
	us.Delete(7)
	if us.Len() != 0 {
		t.Fatalf("Len = %d", us.Len())
	}
}

// TestIndexHomesSpreadShardedHashes pins the home-position fold: the
// keys of one shard of a p-way sharded summary all share h mod p, so an
// index homing on raw low hash bits would crowd them into 1/p of its
// records. Hashes whose low 3 bits are all zero must still probe about
// as short as random ones at the index's pre-sized load.
func TestIndexHomesSpreadShardedHashes(t *testing.T) {
	const m = 4096
	x := New(m, func(k uint64) uint64 { return hashing.KeyHasher[uint64](3)(k) &^ 7 })
	for k := uint64(0); k < m; k++ {
		x.Put(k, int32(k))
	}
	var disp uint64
	for i, r := range x.ents {
		if r.val != empty {
			disp += (uint64(i) - uint64(r.tag>>x.shift)) & x.mask
		}
	}
	if mean := float64(disp) / m; mean > 1 {
		t.Fatalf("mean probe displacement %.2f records: homes crowd on shared low hash bits", mean)
	}
}
