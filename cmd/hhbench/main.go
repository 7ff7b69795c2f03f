// Command hhbench regenerates the reproduction's experiment tables
// (E1–E11, catalogued in DESIGN.md §4): Table 1 of the paper measured
// empirically, plus one experiment per theorem.
//
// Usage:
//
//	hhbench                     # run every experiment at full size
//	hhbench -experiment E3      # run one experiment
//	hhbench -small              # reduced workload (seconds, not minutes)
//	hhbench -n 500000 -universe 50000 -alpha 1.2 -seed 7
//
// Output is plain text, one table per experiment, matching the entries
// recorded in EXPERIMENTS.md.
//
// The -ingest flag instead benchmarks the unified-API ingestion paths
// (per-item Update vs UpdateBatch, unsharded and sharded) on a Zipf
// workload — the quick sanity check that batch ingestion amortizes the
// sharded summary's locking.
//
// The -json flag runs the machine-readable ingest suite (algorithm ×
// workload × sharding × whole-stream/windowed, contended concurrency-
// tier rows, and loopback-HTTP server rows through an in-process
// hhserverd registry) and writes a benchjson report — the input of the
// CI perf gate:
//
//	hhbench -json full.json                  # full-size suite (4M items)
//	hhbench -json BENCH_PR5.json -smoke      # baseline/CI size (~seconds)
//	hhbench -minreport min.json a.json b.json c.json
//	hhbench -compare -threshold 0.15 BENCH_PR5.json min.json
//	hhbench -floor "server/=1e6" min.json
//
// -minreport merges reports from several fresh processes into their
// element-wise minimum (Go's per-process map hash seed makes
// eviction-heavy records bimodal; the min filters it out). -compare
// exits non-zero when the second report regresses against the first
// beyond the threshold (and on any real allocs/op increase). -floor
// enforces an absolute items/s minimum on matching rows — the serving
// criterion the relative gate cannot express.
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	hh "repro"
	"repro/internal/experiments"
	"repro/internal/stream"
)

// runIngest measures wall-clock throughput of the ingestion paths,
// whole-stream and windowed (the windowed rows rotate an 8-epoch ring
// sized to 1/16 of the stream, pricing steady-state rotation).
func runIngest(n uint64, universe int, alpha float64, seed uint64, shards, m, batch int) {
	s := stream.Zipf(universe, alpha, n, stream.OrderRandom, seed)
	win := max(n/16, 1)
	configs := []struct {
		name  string
		opts  []hh.Option
		batch bool
	}{
		{"unsharded Update", nil, false},
		{"unsharded UpdateBatch", nil, true},
		{fmt.Sprintf("sharded(%d) Update", shards), []hh.Option{hh.WithShards(shards)}, false},
		{fmt.Sprintf("sharded(%d) UpdateBatch", shards), []hh.Option{hh.WithShards(shards)}, true},
		{"windowed UpdateBatch", []hh.Option{hh.WithWindow(win)}, true},
		{fmt.Sprintf("windowed sharded(%d) UpdateBatch", shards), []hh.Option{hh.WithWindow(win), hh.WithShards(shards)}, true},
	}
	for _, c := range configs {
		sum := hh.New[uint64](append([]hh.Option{hh.WithCapacity(m)}, c.opts...)...)
		start := time.Now()
		if c.batch {
			for lo := 0; lo < len(s); lo += batch {
				hi := lo + batch
				if hi > len(s) {
					hi = len(s)
				}
				sum.UpdateBatch(s[lo:hi])
			}
		} else {
			for _, x := range s {
				sum.Update(x)
			}
		}
		el := time.Since(start)
		fmt.Printf("%-24s %10d items in %8v  (%6.1f M items/s)\n",
			c.name, len(s), el.Round(time.Microsecond), float64(len(s))/el.Seconds()/1e6)
	}
	runIngestContended(s, shards, m, batch)
}

// runIngestContended prints the multi-goroutine rows: the concurrency
// tier (WithConcurrent + WithShards) under 1/4/8 batch writers, the
// same with a burst-polling reader alongside, and the tier's per-item
// Update path.
func runIngestContended(s []uint64, shards, m, batch int) {
	fmt.Println()
	batchIngest := func(sum hh.Summary[uint64]) func([]uint64) {
		return func(part []uint64) {
			for lo := 0; lo < len(part); lo += batch {
				sum.UpdateBatch(part[lo:min(lo+batch, len(part))])
			}
		}
	}
	itemIngest := func(sum hh.Summary[uint64]) func([]uint64) {
		return func(part []uint64) {
			for _, x := range part {
				sum.Update(x)
			}
		}
	}
	contend := func(name string, sum hh.Summary[uint64], writers int, ingest func([]uint64), read bool) {
		var stop atomic.Bool
		var rwg sync.WaitGroup
		queries := uint64(0)
		if read {
			rwg.Add(1)
			go func() {
				defer rwg.Done()
				var buf []hh.WeightedEntry[uint64]
				for !stop.Load() {
					// Burst-poll: 256 queries back to back, then sleep five
					// milliseconds. The reader is lock-free against writers
					// (stale-snapshot serves, at most one rebuild per
					// generation move), so the only way it can slow them is
					// by monopolizing a core with an unbounded busy spin —
					// which on a box with spare cores costs writers nothing
					// but would turn this row into a CPU-count measurement.
					for i := 0; i < 256 && !stop.Load(); i++ {
						buf = sum.TopAppend(buf[:0], 10)
						sum.Estimate(uint64(len(buf)))
						queries++
					}
					time.Sleep(5 * time.Millisecond)
				}
			}()
		}
		per := (len(s) + writers - 1) / writers
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < writers; w++ {
			lo := w * per
			hi := min(lo+per, len(s))
			if lo >= hi {
				continue
			}
			wg.Add(1)
			go func(part []uint64) {
				defer wg.Done()
				ingest(part)
			}(s[lo:hi])
		}
		wg.Wait()
		el := time.Since(start)
		stop.Store(true)
		rwg.Wait()
		line := fmt.Sprintf("%-32s %10d items in %8v  (%6.1f M items/s)",
			name, len(s), el.Round(time.Microsecond), float64(len(s))/el.Seconds()/1e6)
		if read {
			line += fmt.Sprintf("  [%d reader queries]", queries)
		}
		fmt.Println(line)
	}
	concurrentOpts := []hh.Option{hh.WithCapacity(m), hh.WithShards(shards), hh.WithConcurrent()}
	for _, writers := range []int{1, 4, 8} {
		sum := hh.New[uint64](concurrentOpts...)
		contend(fmt.Sprintf("concurrent(%d) %d writers", shards, writers), sum, writers, batchIngest(sum), false)
	}
	mixed := hh.New[uint64](concurrentOpts...)
	contend(fmt.Sprintf("concurrent(%d) 8 writers+reader", shards), mixed, 8, batchIngest(mixed), true)
	perItem := hh.New[uint64](concurrentOpts...)
	contend(fmt.Sprintf("concurrent(%d) 8 writers Update", shards), perItem, 8, itemIngest(perItem), false)
}

func main() {
	var (
		experimentID = flag.String("experiment", "", "run a single experiment (E1..E11); empty runs all")
		small        = flag.Bool("small", false, "use the reduced workload size")
		n            = flag.Uint64("n", 0, "override stream length")
		universe     = flag.Int("universe", 0, "override universe size")
		alpha        = flag.Float64("alpha", 0, "override Zipf parameter")
		seed         = flag.Uint64("seed", 0, "override random seed")
		format       = flag.String("format", "text", "output format: text | csv")
		ingest       = flag.Bool("ingest", false, "benchmark unified-API ingestion paths instead of the experiments")
		shards       = flag.Int("shards", 8, "shard count for -ingest")
		m            = flag.Int("m", 1024, "counters for -ingest and -json")
		batch        = flag.Int("batch", 4096, "batch size for -ingest")
		jsonOut      = flag.String("json", "", "run the machine-readable ingest suite and write a benchjson report to this path")
		smoke        = flag.Bool("smoke", false, "with -json: CI-sized workload (400k items per configuration instead of 4M)")
		compare      = flag.Bool("compare", false, "compare two benchjson reports (args: baseline.json current.json); exit 1 on regression")
		threshold    = flag.Float64("threshold", 0.15, "with -compare: allowed fractional ns/op regression")
		minReport    = flag.String("minreport", "", "merge benchjson reports (args) into their element-wise minimum at this path")
		floor        = flag.String("floor", "", `enforce an absolute items/s floor on a report (arg), e.g. -floor "server/=1e6" report.json`)
	)
	flag.Parse()
	if *floor != "" {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, `usage: hhbench -floor "name-prefix=items_per_sec" report.json`)
			os.Exit(2)
		}
		runFloor(*floor, flag.Arg(0))
		return
	}
	if *minReport != "" {
		if flag.NArg() < 1 {
			fmt.Fprintln(os.Stderr, "usage: hhbench -minreport out.json in.json...")
			os.Exit(2)
		}
		runMinReport(*minReport, flag.Args())
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: hhbench -compare [-threshold frac] baseline.json current.json")
			os.Exit(2)
		}
		runCompare(flag.Arg(0), flag.Arg(1), *threshold)
		return
	}
	if *jsonOut != "" {
		jn, ju, js := uint64(4_000_000), 100_000, uint64(1)
		if *smoke {
			jn = 400_000
		}
		if *n != 0 {
			jn = *n
		}
		if *universe != 0 {
			ju = *universe
		}
		if *seed != 0 {
			js = *seed
		}
		if err := runJSON(*jsonOut, jn, ju, js, *m, *smoke); err != nil {
			fmt.Fprintf(os.Stderr, "hhbench: writing %s: %v\n", *jsonOut, err)
			os.Exit(1)
		}
		fmt.Printf("benchmark report written to %s\n", *jsonOut)
		return
	}
	if *ingest {
		in, iu, ia, is := uint64(4_000_000), 100_000, 1.1, uint64(1)
		if *n != 0 {
			in = *n
		}
		if *universe != 0 {
			iu = *universe
		}
		if *alpha != 0 {
			ia = *alpha
		}
		if *seed != 0 {
			is = *seed
		}
		runIngest(in, iu, ia, is, *shards, *m, *batch)
		return
	}
	if *format != "text" && *format != "csv" {
		fmt.Fprintf(os.Stderr, "hhbench: unknown format %q\n", *format)
		os.Exit(2)
	}

	cfg := experiments.Default()
	if *small {
		cfg = experiments.Small()
	}
	if *n != 0 {
		cfg.N = *n
	}
	if *universe != 0 {
		cfg.Universe = *universe
	}
	if *alpha != 0 {
		cfg.Alpha = *alpha
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}

	if *experimentID != "" {
		run := experiments.Lookup(*experimentID)
		if run == nil {
			fmt.Fprintf(os.Stderr, "hhbench: unknown experiment %q (want E1..E11)\n", *experimentID)
			os.Exit(2)
		}
		runOne(*experimentID, run, cfg, *format)
		return
	}
	for _, e := range experiments.All() {
		runOne(e.ID, e.Run, cfg, *format)
	}
}

func runOne(id string, run experiments.Runner, cfg experiments.Config, format string) {
	start := time.Now()
	tbl := run(cfg)
	var err error
	if format == "csv" {
		err = tbl.RenderCSV(os.Stdout)
	} else {
		err = tbl.Render(os.Stdout)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "hhbench: rendering %s: %v\n", id, err)
		os.Exit(1)
	}
	if format == "text" {
		fmt.Printf("[%s completed in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}
