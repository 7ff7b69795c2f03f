package heavyhitters_test

// One benchmark per experiment table (E1–E11, see DESIGN.md §4): running
// `go test -bench=E -benchmem` regenerates every table of the
// reproduction at benchmark scale. Micro-benchmarks of the individual
// algorithms' update paths follow.
//
// cmd/hhbench prints the same tables with full-size workloads and is the
// intended way to read the results; the benchmarks exist to track the
// cost of regenerating them and to integrate with standard Go tooling.

import (
	"bytes"
	"io"
	"testing"

	hh "repro"
	"repro/internal/experiments"
	"repro/internal/stream"
)

// benchCfg keeps the per-iteration cost of experiment benchmarks modest;
// hhbench uses experiments.Default() for the full-size run.
func benchCfg() experiments.Config {
	return experiments.Config{N: 50_000, Universe: 5_000, Alpha: 1.1, Seed: 20090629}
}

func runExperiment(b *testing.B, run experiments.Runner) {
	b.Helper()
	cfg := benchCfg()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl := run(cfg)
		if err := tbl.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1Table1(b *testing.B)             { runExperiment(b, experiments.E1Table1) }
func BenchmarkE2TailGuarantee(b *testing.B)      { runExperiment(b, experiments.E2TailGuarantee) }
func BenchmarkE3SparseRecovery(b *testing.B)     { runExperiment(b, experiments.E3SparseRecovery) }
func BenchmarkE4ResidualEstimation(b *testing.B) { runExperiment(b, experiments.E4ResidualEstimation) }
func BenchmarkE5MSparse(b *testing.B)            { runExperiment(b, experiments.E5MSparse) }
func BenchmarkE6Zipf(b *testing.B)               { runExperiment(b, experiments.E6Zipf) }
func BenchmarkE7TopK(b *testing.B)               { runExperiment(b, experiments.E7TopK) }
func BenchmarkE8Weighted(b *testing.B)           { runExperiment(b, experiments.E8Weighted) }
func BenchmarkE9Merge(b *testing.B)              { runExperiment(b, experiments.E9Merge) }
func BenchmarkE10LowerBound(b *testing.B)        { runExperiment(b, experiments.E10LowerBound) }
func BenchmarkE11Ablations(b *testing.B)         { runExperiment(b, experiments.E11Ablations) }
func BenchmarkE12Retrieval(b *testing.B)         { runExperiment(b, experiments.E12Retrieval) }

// --- per-update micro-benchmarks ---

// benchStream is shared by the micro-benchmarks: Zipf-distributed updates
// so eviction paths are exercised realistically.
func benchStream(n int) []uint64 {
	return stream.Zipf(10_000, 1.1, uint64(n), stream.OrderRandom, 1)
}

func BenchmarkSpaceSavingUpdate(b *testing.B) {
	s := benchStream(1 << 16)
	alg := hh.NewSpaceSaving[uint64](1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alg.Update(s[i&(1<<16-1)])
	}
}

func BenchmarkSpaceSavingHeapUpdate(b *testing.B) {
	s := benchStream(1 << 16)
	alg := hh.NewSpaceSavingHeap[uint64](1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alg.Update(s[i&(1<<16-1)])
	}
}

func BenchmarkFrequentUpdate(b *testing.B) {
	s := benchStream(1 << 16)
	alg := hh.NewFrequent[uint64](1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alg.Update(s[i&(1<<16-1)])
	}
}

func BenchmarkLossyCountingUpdate(b *testing.B) {
	s := benchStream(1 << 16)
	alg := hh.NewLossyCounting[uint64](1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alg.Update(s[i&(1<<16-1)])
	}
}

func BenchmarkCountMinUpdate(b *testing.B) {
	s := benchStream(1 << 16)
	cm := hh.NewCountMin(4, 256, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm.Update(s[i&(1<<16-1)])
	}
}

func BenchmarkCountSketchUpdate(b *testing.B) {
	s := benchStream(1 << 16)
	cs := hh.NewCountSketch(5, 256, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.Update(s[i&(1<<16-1)])
	}
}

func BenchmarkSpaceSavingRUpdateWeighted(b *testing.B) {
	ups := stream.WeightedZipf(10_000, 1.1, 1e6, 4, 1)
	alg := hh.NewSpaceSavingR[uint64](1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := ups[i%len(ups)]
		alg.UpdateWeighted(u.Item, u.Weight)
	}
}

func BenchmarkFrequentRUpdateWeighted(b *testing.B) {
	ups := stream.WeightedZipf(10_000, 1.1, 1e6, 4, 1)
	alg := hh.NewFrequentR[uint64](1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := ups[i%len(ups)]
		alg.UpdateWeighted(u.Item, u.Weight)
	}
}

func BenchmarkEstimate(b *testing.B) {
	s := benchStream(1 << 16)
	alg := hh.NewSpaceSaving[uint64](1024)
	for _, x := range s {
		alg.Update(x)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += alg.Estimate(uint64(i % 10_000))
	}
	_ = sink
}

func BenchmarkTopK(b *testing.B) {
	s := benchStream(1 << 16)
	alg := hh.New[uint64](hh.WithCapacity(1024))
	alg.UpdateBatch(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(alg.Top(10)) == 0 {
			b.Fatal("empty top-k")
		}
	}
}

func BenchmarkConcurrentUpdateParallel(b *testing.B) {
	s := benchStream(1 << 16)
	c := hh.New[uint64](hh.WithConcurrent(), hh.WithShards(16), hh.WithCapacity(256))
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			c.Update(s[i&(1<<16-1)])
			i++
		}
	})
}

func BenchmarkSummaryEncode(b *testing.B) {
	s := benchStream(1 << 16)
	alg := hh.New[uint64](hh.WithCapacity(1024))
	alg.UpdateBatch(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := alg.Encode(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSummaryDecode(b *testing.B) {
	s := benchStream(1 << 16)
	alg := hh.New[uint64](hh.WithCapacity(1024))
	alg.UpdateBatch(s)
	var buf bytes.Buffer
	if err := alg.Encode(&buf); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hh.Decode[uint64](bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- unified-API ingestion: per-item Update vs UpdateBatch ---

// benchBatch is the batch size of the UpdateBatch benchmarks; one
// iteration processes this many items in both variants so ns/op is
// directly comparable.
const benchBatch = 4096

func summaryOpts(shards int) []hh.Option {
	opts := []hh.Option{hh.WithCapacity(1024)}
	if shards > 0 {
		opts = append(opts, hh.WithShards(shards))
	}
	return opts
}

func benchSummaryUpdate(b *testing.B, shards int) {
	s := benchStream(1 << 16)
	sum := hh.New[uint64](summaryOpts(shards)...)
	b.ReportAllocs()
	b.SetBytes(benchBatch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := (i % (1 << 16 / benchBatch)) * benchBatch
		for j := 0; j < benchBatch; j++ {
			sum.Update(s[base+j])
		}
	}
}

func benchSummaryUpdateBatch(b *testing.B, shards int) {
	s := benchStream(1 << 16)
	sum := hh.New[uint64](summaryOpts(shards)...)
	b.ReportAllocs()
	b.SetBytes(benchBatch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := (i % (1 << 16 / benchBatch)) * benchBatch
		sum.UpdateBatch(s[base : base+benchBatch])
	}
}

func BenchmarkSummaryUpdate(b *testing.B)             { benchSummaryUpdate(b, 0) }
func BenchmarkSummaryUpdateBatch(b *testing.B)        { benchSummaryUpdateBatch(b, 0) }
func BenchmarkSummaryShardedUpdate(b *testing.B)      { benchSummaryUpdate(b, 8) }
func BenchmarkSummaryShardedUpdateBatch(b *testing.B) { benchSummaryUpdateBatch(b, 8) }

func BenchmarkSummaryShardedUpdateParallel(b *testing.B) {
	s := benchStream(1 << 16)
	sum := hh.New[uint64](hh.WithShards(16), hh.WithCapacity(256))
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			sum.Update(s[i&(1<<16-1)])
			i++
		}
	})
}

func BenchmarkSummaryShardedUpdateBatchParallel(b *testing.B) {
	s := benchStream(1 << 16)
	sum := hh.New[uint64](hh.WithShards(16), hh.WithCapacity(256))
	b.ReportAllocs()
	b.SetBytes(benchBatch)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			base := (i % (1 << 16 / benchBatch)) * benchBatch
			sum.UpdateBatch(s[base : base+benchBatch])
			i++
		}
	})
}

func BenchmarkMerge(b *testing.B) {
	s := benchStream(1 << 16)
	a1 := hh.New[uint64](hh.WithCapacity(256))
	a2 := hh.New[uint64](hh.WithCapacity(256))
	for i, x := range s {
		if i%2 == 0 {
			a1.Update(x)
		} else {
			a2.Update(x)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hh.MergeSummaries(256, a1, a2); err != nil {
			b.Fatal(err)
		}
	}
}
