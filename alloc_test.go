package heavyhitters_test

// Allocation-regression tests: the ingest hot path (Update / AddN via
// UpdateWeighted) of every counter backend and the TopAppend query path
// with a reused buffer must not allocate at steady state. These pin the
// slab-allocated bucket-list layout and the reused-scratch query
// surface; the CI perf gate enforces the same property on the hhbench
// suite, but testing.AllocsPerRun catches it at -short test speed.

import (
	"testing"

	hh "repro"
	"repro/internal/stream"
	"repro/internal/testutil"
)

// counterAlgos (declared in summary_test.go) are also exactly the
// backends whose hot paths are required to be allocation-free.

// allocStream exercises insert, bump and eviction paths: Zipf-skewed
// over a universe much larger than the counter budget.
func allocStream() []uint64 {
	return stream.Zipf(10_000, 1.1, 1<<14, stream.OrderRandom, 42)
}

// assertZeroAllocs warms the summary with one full pass (filling the
// counters and growing the key map to steady state), then asserts the
// hot loop allocates nothing.
func assertZeroAllocs(t *testing.T, name string, warm, loop func()) {
	t.Helper()
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates; allocation accounting is meaningless under -race")
	}
	warm()
	if avg := testing.AllocsPerRun(10, loop); avg != 0 {
		t.Errorf("%s: %.4f allocs per run at steady state, want 0", name, avg)
	}
}

func TestSummaryUpdateZeroAllocs(t *testing.T) {
	s := allocStream()
	for _, a := range counterAlgos {
		sum := hh.New[uint64](hh.WithAlgorithm(a), hh.WithCapacity(256))
		assertZeroAllocs(t, a.String(),
			func() { sum.UpdateBatch(s) },
			func() {
				for _, x := range s[:4096] {
					sum.Update(x)
				}
			})
	}
}

// TestSummaryAddNZeroAllocs drives the native integral-weight AddN path
// of each backend through UpdateWeighted.
func TestSummaryAddNZeroAllocs(t *testing.T) {
	s := allocStream()
	for _, a := range counterAlgos {
		sum := hh.New[uint64](hh.WithAlgorithm(a), hh.WithCapacity(256))
		assertZeroAllocs(t, a.String(),
			func() { sum.UpdateBatch(s) },
			func() {
				for _, x := range s[:4096] {
					sum.UpdateWeighted(x, 3)
				}
			})
	}
}

// TestCounterAddNZeroAllocs pins the slab structures directly, without
// the Summary wrapper in between.
func TestCounterAddNZeroAllocs(t *testing.T) {
	s := allocStream()
	type counter interface {
		Update(uint64)
		AddN(uint64, uint64)
	}
	for _, tc := range []struct {
		name string
		alg  counter
	}{
		{"spacesaving.StreamSummary", hh.NewSpaceSaving[uint64](256)},
		{"frequent.Frequent", hh.NewFrequent[uint64](256)},
		{"lossycounting.LossyCounting", hh.NewLossyCounting[uint64](256)},
	} {
		assertZeroAllocs(t, tc.name,
			func() {
				for _, x := range s {
					tc.alg.Update(x)
				}
			},
			func() {
				for _, x := range s[:2048] {
					tc.alg.Update(x)
					tc.alg.AddN(x, 5)
				}
			})
	}
}

// TestTopAppendZeroAllocs asserts the query path allocates nothing once
// the caller reuses a buffer — the contract that lets a poller read the
// top-k every few milliseconds without GC pressure.
func TestTopAppendZeroAllocs(t *testing.T) {
	s := allocStream()
	for _, a := range counterAlgos {
		sum := hh.New[uint64](hh.WithAlgorithm(a), hh.WithCapacity(256))
		sum.UpdateBatch(s)
		var buf []hh.WeightedEntry[uint64]
		assertZeroAllocs(t, a.String(),
			func() { buf = sum.TopAppend(buf[:0], 10) },
			func() {
				buf = sum.TopAppend(buf[:0], 10)
				if len(buf) != 10 {
					t.Fatalf("top-10 returned %d entries", len(buf))
				}
			})
	}
}

// TestWindowRotationZeroAllocs pins the window layer's steady-state
// contract: the ingest loop — including every epoch rotation it
// triggers (the loop crosses an epoch boundary every 512 items) — must
// not allocate once the ring is warm. Rotation recycles the evicted
// epoch via the slab-retaining Reset; an allocation here means a reset
// path regressed to rebuilding storage.
func TestWindowRotationZeroAllocs(t *testing.T) {
	s := allocStream()
	for _, tc := range []struct {
		name string
		opts []hh.Option
	}{
		{"spacesaving", []hh.Option{hh.WithAlgorithm(hh.AlgoSpaceSaving)}},
		{"frequent", []hh.Option{hh.WithAlgorithm(hh.AlgoFrequent)}},
		{"lossycounting", []hh.Option{hh.WithAlgorithm(hh.AlgoLossyCounting)}},
		{"weighted-spacesaving", []hh.Option{hh.WithWeighted()}},
		{"weighted-frequent", []hh.Option{hh.WithAlgorithm(hh.AlgoFrequent), hh.WithWeighted()}},
	} {
		opts := append([]hh.Option{hh.WithCapacity(128), hh.WithWindow(2048), hh.WithEpochs(4)}, tc.opts...)
		sum := hh.New[uint64](opts...)
		assertZeroAllocs(t, tc.name,
			func() { sum.UpdateBatch(s) },
			func() {
				for _, x := range s[:4096] { // 8 rotations per run
					sum.Update(x)
				}
			})
	}
}

// TestDecayUpdateZeroAllocs: the decay tier's hot path (including the
// periodic renormalization sweep) stays allocation-free too.
func TestDecayUpdateZeroAllocs(t *testing.T) {
	s := allocStream()
	sum := hh.New[uint64](hh.WithCapacity(128), hh.WithDecay(0.1))
	assertZeroAllocs(t, "decay",
		func() { sum.UpdateBatch(s) },
		func() {
			for _, x := range s[:4096] { // λ·4096 ≈ 410: > one renormalization per run
				sum.Update(x)
			}
		})
}

// TestConcurrentTierIngestZeroAllocs pins the concurrency tier's write
// path: the striped-lock ingest (per-item and batch, unsharded and
// sharded) adds only a mutex handoff and an atomic generation bump on
// top of the wrapped composition — no allocations. Reads are excluded
// deliberately: a snapshot rebuild allocates its immutable view by
// design, amortized across all reads until the generation moves.
func TestConcurrentTierIngestZeroAllocs(t *testing.T) {
	s := allocStream()
	for _, tc := range []struct {
		name string
		opts []hh.Option
	}{
		{"concurrent", []hh.Option{hh.WithConcurrent()}},
		{"concurrent-sharded", []hh.Option{hh.WithConcurrent(), hh.WithShards(8)}},
		{"concurrent-window", []hh.Option{hh.WithConcurrent(), hh.WithWindow(2048), hh.WithEpochs(4)}},
	} {
		sum := hh.New[uint64](append([]hh.Option{hh.WithCapacity(256)}, tc.opts...)...)
		assertZeroAllocs(t, tc.name,
			func() { sum.UpdateBatch(s) },
			func() {
				sum.UpdateBatch(s[:2048])
				for _, x := range s[:2048] {
					sum.Update(x)
				}
			})
	}
}

// TestShardedHotPathZeroAllocs covers the concurrent backend: batch
// ingestion partitions through pooled scratch buffers and TopAppend
// snapshots through per-shard reused scratch, so both stay
// allocation-free at steady state too.
func TestShardedHotPathZeroAllocs(t *testing.T) {
	s := allocStream()
	sum := hh.New[uint64](hh.WithCapacity(256), hh.WithShards(8))
	var buf []hh.WeightedEntry[uint64]
	assertZeroAllocs(t, "sharded UpdateBatch+TopAppend",
		func() {
			sum.UpdateBatch(s)
			buf = sum.TopAppend(buf[:0], 10)
		},
		func() {
			sum.UpdateBatch(s[:4096])
			buf = sum.TopAppend(buf[:0], 10)
		})
}

// TestCoalescedIngestZeroAllocs pins the in-batch coalescing path: the
// open-addressing scratch table, per-shard key/hash/count arrays, and
// the AddNBatch kernels must all run out of pooled memory at
// steady state — on dup-heavy batches and on the all-distinct worst
// case alike.
func TestCoalescedIngestZeroAllocs(t *testing.T) {
	dup := make([]uint64, 4096)
	for i := range dup {
		dup[i] = uint64(i % 37) // ~110 copies of each key per batch
	}
	distinct := make([]uint64, 4096)
	for i := range distinct {
		distinct[i] = uint64(i) // every key unique: coalescing finds nothing
	}
	for _, tc := range []struct {
		name  string
		batch []uint64
		algos []hh.Algo
	}{
		// Every counter algorithm shares the pooled partition scratch.
		{"dup-heavy", dup, counterAlgos},
		// The all-distinct worst case is a property of the coalescing
		// kernel, which only SPACESAVING and FREQUENT take (LOSSYCOUNTING
		// is excluded from coalescing, and its map-backed core can grow
		// overflow buckets under all-distinct churn depending on the
		// process hash seed — not a kernel regression).
		{"all-distinct", distinct, []hh.Algo{hh.AlgoSpaceSaving, hh.AlgoFrequent}},
	} {
		for _, a := range tc.algos {
			sum := hh.New[uint64](hh.WithAlgorithm(a), hh.WithCapacity(256), hh.WithShards(8))
			assertZeroAllocs(t, a.String()+"/"+tc.name,
				func() { sum.UpdateBatch(tc.batch) },
				func() { sum.UpdateBatch(tc.batch) })
		}
	}
}

// TestPipelinedIngestZeroAllocs pins the WithPipeline enqueue path:
// producer-side partition+coalesce scratch, ring-slot key/count/hash
// arrays, and the flush barrier are all reused, so steady-state
// pipelined ingest allocates nothing on either side of the rings (the
// worker's kernel work is counted too — AllocsPerRun reads the global
// allocation counters, and the Flush in the loop drains every job).
func TestPipelinedIngestZeroAllocs(t *testing.T) {
	batch := make([]uint64, 4096)
	for i := range batch {
		batch[i] = uint64(i % 37)
	}
	sum := hh.New[uint64](hh.WithCapacity(256), hh.WithShards(4), hh.WithPipeline())
	assertZeroAllocs(t, "pipelined UpdateBatch+Flush",
		func() {
			// Steady state here means every ring slot's arrays have
			// grown to the sub-batch high-water mark: jobs rotate
			// through the whole ring, so warm one full lap.
			for i := 0; i < 80; i++ {
				sum.UpdateBatch(batch)
			}
			sum.Flush()
		},
		func() {
			sum.UpdateBatch(batch)
			sum.Flush()
		})
}
