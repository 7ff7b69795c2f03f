// Command perfbench is the served-path benchmark: it boots the real
// hhserverd binary as a child process, drives it from this one process
// over hhwire and HTTP with at most two connections, prints every
// end-to-end metric, and checks the served answers against an exact
// oracle. With -trace 1 it instead prints the per-layer metrics of an
// in-process replay of the same inputs. README.md documents the
// workloads and metrics.
//
// Usage (perfbench/run.sh builds both binaries and passes -root and
// -hhserverd):
//
//	perfbench -root . -hhserverd bin/hhserverd --workload ingest-zipf-wire --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// bench is one run: its workload, generated inputs, private temporary
// directory and child processes.
type bench struct {
	w         workload
	seed      uint64
	seconds   int
	in        *inputs
	dir       string
	hhserverd string
	daemons   daemons
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	var (
		root      = flag.String("root", ".", "repository root; temporary files go under <root>/.bench_build")
		bin       = flag.String("hhserverd", "", "path of the hhserverd binary to benchmark")
		name      = flag.String("workload", "", "workload name (see README.md)")
		seed      = flag.Uint64("seed", 1, "workload seed: all inputs derive from it")
		seconds   = flag.Int("seconds", 10, "measured seconds per run")
		traceFlag = flag.Int("trace", 0, "1: print per-layer metrics from the traced replay; 0: end-to-end metrics")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err == nil && (*bin == "" || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1)) {
		err = fmt.Errorf("need -hhserverd, --seconds >= 1 and --trace 0|1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	b := &bench{w: w, seed: *seed, seconds: *seconds, hhserverd: *bin}
	res, err := b.runSafely(ctx, *root, *traceFlag == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// runSafely runs the benchmark and always kills and reaps every child
// and removes the run's temporary directory, even when the run panics
// or is interrupted.
func (b *bench) runSafely(ctx context.Context, root string, traced bool) (res *result, err error) {
	base := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	if b.dir, err = os.MkdirTemp(base, "run-*"); err != nil {
		return nil, err
	}
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
		b.daemons.killAll()
		if rerr := os.RemoveAll(b.dir); rerr != nil && err == nil {
			err = rerr
		}
	}()
	go func() {
		// An interrupt kills the children at once; the main goroutine
		// then fails on its next operation and cleans up.
		<-ctx.Done()
		b.daemons.killAll()
	}()

	genStart := time.Now()
	if b.in, err = genInputs(b.w, b.seed, poolBatches); err != nil {
		return nil, err
	}
	fmt.Printf("perfbench: %s seed %d: inputs generated in %.2fs\n", b.w.name, b.seed, time.Since(genStart).Seconds())
	e2e, err := b.runE2E(ctx)
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	b.report(e2e)
	res = &result{
		Correct:   len(e2e.check.violations) == 0 && e2e.ops.failed == 0,
		Attempted: e2e.ops.attempted,
		Failed:    e2e.ops.failed,
	}
	if !traced {
		res.Metrics = e2eMetrics(e2e)
		return res, nil
	}
	tr, err := b.runTraced(e2e)
	if err != nil {
		return nil, err
	}
	res.Correct = res.Correct && len(tr.violations) == 0
	res.Metrics = tr.metrics
	return res, nil
}

// e2eMetrics are the end_to_end metrics of BENCHMARK.json: the figures
// that stay steady while the host steals CPU time from the guest. The
// wall-clock rates and tails are printed by the traced run as e2e.*.
func e2eMetrics(r *e2eResult) map[string]metric {
	return map[string]metric{
		"ingest_cpu_ns_item": {r.medianRound(func(s roundStats) float64 { return s.ingestCPU }), "ns/item"},
		"query_cpu_ms":       {r.medianRound(func(s roundStats) float64 { return s.queryCPU }), "ms"},
		"setup_s":            {r.medianBoot(func(b bootTimes) time.Duration { return b.cpu }), "s"},
		"rss_peak_mib":       {r.rssMiB, "MiB"},
		"tail_bound_frac":    {r.check.tailBoundFrac, "fraction"},
	}
}

// report prints the run's human-readable summary: sample counts behind
// every percentile, failures and checkpoint violations.
func (b *bench) report(r *e2eResult) {
	for i, bt := range r.setup {
		fmt.Printf("perfbench: boot %d: ready after %.1f ms, %.1f ms of daemon CPU\n", i, ms(bt.wall), ms(bt.cpu))
	}
	fmt.Printf("perfbench: %d rounds; open loop at %.0f items/s: %d acks, %d sends; %d queries, %d merges; host stole %.1f%% of the guest's CPU time\n",
		len(r.rounds), b.w.openRate, r.acks, r.sends, r.queries, r.merges, 100*r.stealFrac)
	for i, s := range r.rounds {
		fmt.Printf("perfbench: round %d: ingest %.0f items/s at %.0f CPU ns/item, ack p50 %.3f p99 %.3f ms, late p99 %.3f ms, query p50 %.3f p99 %.3f ms, %.1f queries/s at %.3f CPU ms/query\n",
			i, s.ingestPerS, s.ingestCPU, s.ackP50, s.ackP99, s.lateP99, s.queryP50, s.queryP99, s.queriesS, s.queryCPU)
	}
	fmt.Printf("perfbench: served Top(100) widest interval %.3g of N\n", r.check.topWidth)
	if r.snapEpoch != "" {
		fmt.Printf("perfbench: committed snapshot at end: %s\n", r.snapEpoch)
	}
	fmt.Printf("perfbench: %d operations attempted, %d failed\n", r.ops.attempted, r.ops.failed)
	for _, e := range r.errs {
		fmt.Printf("perfbench: failure: %s\n", e)
	}
	for _, v := range r.check.violations {
		fmt.Printf("perfbench: check failed: %s\n", v)
	}
}
