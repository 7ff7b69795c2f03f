package main

// The capacity tier of the -json suite: string-keyed trace replay at
// realistic counter budgets, measuring what the throughput rows cannot
// — the steady-state memory a tracked key costs and the number of heap
// objects the live structure makes every GC mark phase walk. Every
// SPACESAVING summary keeps its keys in the arena index, so the rows
// must hold bytes_per_tracked_key near the slab geometry and
// heap_objects O(1) in m.
//
// Keys are formatted into a reused buffer and passed as zero-copy
// views under WithBorrowedKeys — exactly the hhwire decoder's ingest
// shape, so the rows measure the one-copy intern path.

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"
	"unsafe"

	hh "repro"
	"repro/internal/benchjson"
	"repro/internal/stream"
)

// capacityBudgets enumerates the measured counter budgets. The m=1M
// row replays enough distinct keys to be GC-interesting and is skipped
// in -smoke runs (the CI gate measures m=64k; the nightly job runs the
// full tier).
var capacityBudgets = []struct {
	name      string
	m         int
	universe  int
	smokeSafe bool
}{
	{"m64k", 64 << 10, 1 << 20, true},
	{"m1m", 1 << 20, 1 << 22, false},
}

// capacityPasses: the replay is long enough (items >> m) that two
// passes suffice for a stable minimum; the memory columns do not
// depend on pass timing at all.
const capacityPasses = 2

// measureCapacity replays s (as decimal-formatted string keys) into a
// SPACESAVING summary of budget m and reports the v2 capacity columns.
func measureCapacity(budget string, m int, s []uint64) benchjson.Record {
	opts := []hh.Option{hh.WithCapacity(m), hh.WithBorrowedKeys(), hh.WithSeed(1)}

	sum := hh.New[string](opts...)
	var buf []byte
	replay := func() {
		for _, x := range s {
			buf = strconv.AppendUint(buf[:0], x, 10)
			sum.Update(unsafe.String(&buf[0], len(buf)))
		}
	}
	replay() // warm: fill counters, converge slab classes / clone cache

	var allocBefore, allocAfter runtime.MemStats
	runtime.ReadMemStats(&allocBefore)
	var elapsed time.Duration
	for pass := 0; pass < capacityPasses; pass++ {
		start := time.Now()
		replay()
		if d := time.Since(start); pass == 0 || d < elapsed {
			elapsed = d
		}
	}
	runtime.ReadMemStats(&allocAfter)

	// p99 GC pause over the replay's recent history (the runtime keeps
	// the last 256 pauses; the replay dominates them at these stream
	// lengths). Report-only — see benchjson.Compare.
	var gcs debug.GCStats
	gcs.PauseQuantiles = make([]time.Duration, 101)
	debug.ReadGCStats(&gcs)
	pauseP99 := float64(gcs.PauseQuantiles[99].Nanoseconds())

	// The steady-state live footprint: what this warm structure pins,
	// amortized over its tracked keys — measured as what a forced GC
	// releases once the structure is dropped. Runtime objects created
	// meanwhile (a GC's mark termination may start a new M, with its
	// g0 and signal goroutines) live on in both readings and cancel,
	// where a before/after delta would charge them to the structure.
	// Includes the counter slabs, a fixed function of m.
	tracked := max(sum.Len(), 1)
	var live, dropped runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&live)
	runtime.KeepAlive(sum)
	runtime.GC()
	runtime.ReadMemStats(&dropped)
	liveBytes := max(float64(live.HeapAlloc)-float64(dropped.HeapAlloc), 0)
	liveObjects := max(int64(live.HeapObjects)-int64(dropped.HeapObjects), 0)
	runtime.KeepAlive(buf)

	n := float64(len(s))
	return benchjson.Record{
		Name:               fmt.Sprintf("capacity/spacesaving/zipf-1.1/%s/arena", budget),
		Algo:               hh.AlgoSpaceSaving.String(),
		Workload:           "zipf-1.1",
		Batch:              1, // per-item borrowed-key Update, the wire shape
		Items:              uint64(len(s)),
		NsPerOp:            float64(elapsed.Nanoseconds()) / n,
		ItemsPerSec:        n / elapsed.Seconds(),
		AllocsPerOp:        float64(allocAfter.Mallocs-allocBefore.Mallocs) / (n * capacityPasses),
		BytesPerOp:         float64(allocAfter.TotalAlloc-allocBefore.TotalAlloc) / (n * capacityPasses),
		BytesPerTrackedKey: liveBytes / float64(tracked),
		HeapObjects:        uint64(liveObjects),
		GCPauseP99Ns:       pauseP99,
	}
}

// runCapacity appends the capacity rows to the report. smoke runs only
// the smoke-safe budgets at a shorter replay; the full suite replays
// 10M+ items per budget.
func runCapacity(report *benchjson.Report, seed uint64, smoke bool) {
	items := 12_000_000
	if smoke {
		items = 2_000_000
	}
	for _, b := range capacityBudgets {
		if smoke && !b.smokeSafe {
			continue
		}
		s := stream.Zipf(b.universe, 1.1, uint64(items), stream.OrderRandom, seed)
		rec := measureCapacity(b.name, b.m, s)
		report.Add(rec)
		fmt.Fprintf(os.Stderr, "%-45s %8.2f M items/s  %6.1f ns/op  %.3f allocs/op  %7.1f B/key  %8d objs  p99 pause %.2f ms\n",
			rec.Name, rec.ItemsPerSec/1e6, rec.NsPerOp, rec.AllocsPerOp,
			rec.BytesPerTrackedKey, rec.HeapObjects, rec.GCPauseP99Ns/1e6)
	}
}
