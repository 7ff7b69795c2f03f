package heavyhitters_test

// Integration tests of the arena key index behind SPACESAVING and
// FREQUENT: string keys (interned in slabs) and fixed-size keys
// (inline) must be observationally identical, ingest must stay
// allocation-free, the slab footprint bounded under eviction churn,
// and — the point of the whole exercise — the structure must
// contribute O(1) heap objects per GC mark phase instead of O(m).

import (
	"fmt"
	"maps"
	"runtime"
	"strconv"
	"testing"
	"unsafe"

	hh "repro"
	"repro/internal/frequent"
	"repro/internal/stream"
	"repro/internal/testutil"
)

// arenaAlgos are the backends that keep their keys in the arena index.
var arenaAlgos = []hh.Algo{hh.AlgoSpaceSaving, hh.AlgoFrequent}

// naiveSpaceSaving is a literal transcription of Algorithm 2 with
// StreamSummary's tie-break: among minimum counters, evict the one
// whose count changed least recently.
type naiveSpaceSaving struct {
	m     int
	now   uint64
	count map[uint64]uint64
	err   map[uint64]uint64
	stamp map[uint64]uint64 // arrival at which the count last changed
}

func (o *naiveSpaceSaving) update(x uint64) {
	o.now++
	if _, ok := o.count[x]; ok || len(o.count) < o.m {
		o.count[x]++
		o.stamp[x] = o.now
		return
	}
	victim, first := uint64(0), true
	for k, c := range o.count {
		if vc := o.count[victim]; first || c < vc || (c == vc && o.stamp[k] < o.stamp[victim]) {
			victim, first = k, false
		}
	}
	min := o.count[victim]
	delete(o.count, victim)
	delete(o.err, victim)
	delete(o.stamp, victim)
	o.count[x], o.err[x], o.stamp[x] = min+1, min, o.now
}

// counters maps every tracked key of s, named by name, to its
// (count, error) pair.
func counters[K comparable](s hh.Summary[K], name func(K) string) map[string][2]float64 {
	out := map[string][2]float64{}
	for e := range s.All() {
		out[name(e.Item)] = [2]float64{e.Count, e.Err}
	}
	return out
}

// TestStringKeysMatchUint64Twin is the key-kind differential: the one
// index interns string keys into slabs and holds uint64 keys inline,
// and neither may show through. A string-keyed summary and its
// uint64-keyed twin, fed the same stream (decimal keys), must track
// the same counters with the same counts and errors, unsharded and
// windowed (sharding places keys by their hash, so the twins' shards
// differ by design), and unsharded they must match the naive
// transcription of the algorithm.
func TestStringKeysMatchUint64Twin(t *testing.T) {
	const m = 512
	s := stream.Zipf(200_000, 1.07, 1<<16, stream.OrderRandom, 7)
	for _, a := range arenaAlgos {
		for _, opts := range [][]hh.Option{
			nil,
			{hh.WithWindow(32_768), hh.WithEpochs(4)},
		} {
			base := append([]hh.Option{hh.WithAlgorithm(a), hh.WithCapacity(m), hh.WithSeed(11)}, opts...)
			strs := hh.New[string](base...)
			nums := hh.New[uint64](base...)
			for _, x := range s {
				strs.Update(strconv.FormatUint(x, 10))
				nums.Update(x)
			}
			// Every key kind reports its index footprint; windows sum
			// their epochs, so only the flat summary's keys equal Len.
			for _, sum := range []interface {
				Memory() (hh.MemoryStats, bool)
				Len() int
			}{strs, nums} {
				if ms, ok := sum.Memory(); !ok || (opts == nil && ms.LiveKeys != sum.Len()) {
					t.Fatalf("%v %v: Memory() = %+v, %v for %d tracked keys", a, opts, ms, ok, sum.Len())
				}
			}
			if sn, nn := strs.N(), nums.N(); sn != nn {
				t.Fatalf("%v %v: N %v != %v", a, opts, sn, nn)
			}
			got := counters(strs, func(k string) string { return k })
			want := counters(nums, func(k uint64) string { return strconv.FormatUint(k, 10) })
			if opts == nil {
				oracle := map[string][2]float64{}
				if a == hh.AlgoSpaceSaving {
					o := &naiveSpaceSaving{m: m, count: map[uint64]uint64{}, err: map[uint64]uint64{}, stamp: map[uint64]uint64{}}
					for _, x := range s {
						o.update(x)
					}
					for k, c := range o.count {
						oracle[strconv.FormatUint(k, 10)] = [2]float64{float64(c), float64(o.err[k])}
					}
				} else {
					o := frequent.NewNaive[uint64](m)
					for _, x := range s {
						o.Update(x)
					}
					for _, e := range o.Entries() {
						oracle[strconv.FormatUint(e.Item, 10)] = [2]float64{float64(e.Count), 0}
					}
				}
				if !maps.Equal(want, oracle) {
					t.Fatalf("%v: uint64 summary diverges from the naive oracle (%d vs %d counters)", a, len(want), len(oracle))
				}
			}
			if !maps.Equal(got, want) {
				t.Fatalf("%v %v: string summary diverges from its uint64 twin (%d vs %d counters)", a, opts, len(got), len(want))
			}
			for k := range want {
				x, _ := strconv.ParseUint(k, 10, 64)
				slo, shi := strs.EstimateBounds(k)
				nlo, nhi := nums.EstimateBounds(x)
				if slo != nlo || shi != nhi {
					t.Fatalf("%v %v: bounds(%s): string [%v,%v] uint64 [%v,%v]", a, opts, k, slo, shi, nlo, nhi)
				}
			}
		}
	}
}

// TestArenaIngestZeroAllocs pins the hot-path contract for both key
// storage modes: string ingest with borrowed keys (interned, no clone
// cache) and uint64 ingest (inline keys) allocate nothing at steady
// state, per item and per batch — no key clones, no slab growth once
// the working set's size classes are warm.
func TestArenaIngestZeroAllocs(t *testing.T) {
	s := allocStream()
	for _, a := range arenaAlgos {
		for _, shards := range []int{0, 4} {
			opts := []hh.Option{hh.WithAlgorithm(a), hh.WithCapacity(256), hh.WithBorrowedKeys()}
			if shards > 0 {
				opts = append(opts, hh.WithShards(shards))
			}
			name := fmt.Sprintf("%v/shards=%d", a, shards)
			strs := hh.New[string](opts...)
			var buf []byte
			feed := func(items []uint64) {
				for _, x := range items {
					// Format into a reused buffer and pass a zero-copy view:
					// exactly what the wire decoders hand the summary.
					buf = strconv.AppendUint(buf[:0], x, 10)
					strs.Update(unsafe.String(&buf[0], len(buf)))
				}
			}
			assertZeroAllocs(t, "string/"+name,
				func() { feed(s) },
				func() { feed(s[:4096]) })

			nums := hh.New[uint64](opts...)
			assertZeroAllocs(t, "uint64/"+name,
				func() { nums.UpdateBatch(s) },
				func() {
					for _, x := range s[:2048] {
						nums.Update(x)
					}
					nums.UpdateBatch(s[2048:4096])
				})
		}
	}
}

// TestLossyCountingPruneZeroAllocs drives windows of churn so prune
// evicts aggressively: the staged-deletion scratch must be reused, not
// reallocated, once it has seen the largest prune.
func TestLossyCountingPruneZeroAllocs(t *testing.T) {
	lc := hh.NewLossyCounting[uint64](64)
	feed := func(n int) {
		for i := 0; i < n; i++ {
			// A pure one-shot stream: every entry is pruned at every
			// window boundary, the worst case for the scratch slice.
			lc.Update(uint64(i) << 8)
		}
	}
	assertZeroAllocs(t, "lossycounting prune",
		func() { feed(1 << 14) },
		func() { feed(4096) })
}

// TestArenaBoundedUnderChurn is the summary-level eviction invariant:
// a small arena summary fed a Zipf stream over a vastly larger key
// universe must recycle evicted keys' slab space, not grow — measured
// through the public Memory walk.
func TestArenaBoundedUnderChurn(t *testing.T) {
	sum := hh.New[string](hh.WithCapacity(1024))
	feed := func(n, seed int) {
		for _, x := range stream.Zipf(n, 1.01, 1<<22, stream.OrderRandom, uint64(seed)) {
			sum.Update(strconv.FormatUint(x, 10))
		}
	}
	feed(200_000, 1)
	warm, ok := sum.Memory()
	if !ok {
		t.Fatal("arena summary reports no footprint")
	}
	feed(800_000, 2)
	final, _ := sum.Memory()
	if final.ArenaBytes > 2*warm.ArenaBytes {
		t.Fatalf("slabs grew under eviction churn: %d -> %d bytes", warm.ArenaBytes, final.ArenaBytes)
	}
	if final.LiveKeys != sum.Len() {
		t.Fatalf("Memory.LiveKeys %d != Len %d", final.LiveKeys, sum.Len())
	}
	if final.LiveBytes+final.FreeBytes > final.ArenaBytes {
		t.Fatalf("accounting: live %d + free %d > slabs %d", final.LiveBytes, final.FreeBytes, final.ArenaBytes)
	}
}

// heapObjectsHolding builds a summary, forces a full GC and reports
// the live-object delta it is responsible for.
func heapObjectsHolding(build func() hh.Summary[string]) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	if after.HeapObjects < before.HeapObjects {
		return 0
	}
	return after.HeapObjects - before.HeapObjects
}

// TestArenaHeapObjectsConstant is the acceptance criterion: at
// m = 1M tracked string keys, SPACESAVING's steady-state heap is O(1)
// objects in m — slabs, the index table and node slices — while a
// map-keyed structure over the same keys (the weighted variant, the
// control) owns millions: one per key string plus the map buckets. GC
// mark cost scales with objects, so this ratio is the whole motivation
// for the arena.
func TestArenaHeapObjectsConstant(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-key summaries are slow; run without -short")
	}
	if testutil.RaceEnabled {
		t.Skip("race instrumentation owns shadow allocations; object accounting is meaningless under -race")
	}
	const m = 1 << 20
	build := func(opts ...hh.Option) func() hh.Summary[string] {
		return func() hh.Summary[string] {
			// BorrowedKeys on both: the map-keyed control clones every
			// retained key into its own heap object (what any real
			// deployment does, borrowed or not — the keys must live
			// somewhere), the arena index interns into slabs.
			s := hh.New[string](append(opts, hh.WithCapacity(m), hh.WithBorrowedKeys())...)
			var buf []byte
			for i := 0; i < m+m/8; i++ { // past m: the eviction path runs too
				buf = append(buf[:0], "key-"...)
				buf = strconv.AppendInt(buf, int64(i), 10)
				s.Update(unsafe.String(&buf[0], len(buf)))
			}
			return s
		}
	}
	mapObjs := heapObjectsHolding(build(hh.WithWeighted()))
	arenaObjs := heapObjectsHolding(build())
	t.Logf("m=%d: map-keyed control %d heap objects, arena index %d", m, mapObjs, arenaObjs)
	if arenaObjs*50 > mapObjs {
		t.Fatalf("arena index owns %d heap objects vs the map-keyed control's %d; want <2%%", arenaObjs, mapObjs)
	}
	if arenaObjs > 20_000 {
		t.Fatalf("arena index owns %d heap objects at m=%d; want O(1) in m", arenaObjs, m)
	}
}

// TestArenaMaterializedKeysOutliveEviction pins the export-boundary
// copy: keys returned by queries must stay valid after the tracked
// entry is evicted and its slab region recycled.
func TestArenaMaterializedKeysOutliveEviction(t *testing.T) {
	sum := hh.New[string](hh.WithCapacity(64))
	for i := 0; i < 64; i++ {
		for rep := 0; rep < 64-i; rep++ {
			sum.Update(fmt.Sprintf("stable-%02d", i))
		}
	}
	top := sum.TopAppend(nil, 8)
	// Churn hard enough to evict and recycle every original region.
	for i := 0; i < 100_000; i++ {
		sum.Update(strconv.Itoa(i))
	}
	for j, e := range top {
		want := fmt.Sprintf("stable-%02d", j)
		if e.Item != want {
			t.Fatalf("exported key %d corrupted by post-query churn: %q, want %q", j, e.Item, want)
		}
	}
}
