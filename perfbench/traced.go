package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// perLayer lists the per_layer metrics of BENCHMARK.json with their
// units, in the order README.md documents them.
var perLayer = []struct{ name, unit string }{
	{"e2e.ingest_items_per_s", "items/s"},
	{"e2e.ack_p50_ms", "ms"},
	{"e2e.ack_p99_ms", "ms"},
	{"e2e.query_p50_ms", "ms"},
	{"e2e.query_p99_ms", "ms"},
	{"e2e.queries_per_s", "1/s"},
	{"e2e.setup_wall_s", "s"},
	{"gen.late_p99_ms", "ms"},
	{"gen.encode_ns_per_item", "ns/item"},
	{"wire.parse_ns_per_item", "ns/item"},
	{"wire.bytes_per_item", "B/item"},
	{"registry.route_ns", "ns"},
	{"registry.ingest_ns_per_item", "ns/item"},
	{"registry.ingest_self_ns_per_item", "ns/item"},
	{"registry.ingest_p99_us", "us"},
	{"registry.allocs_per_item", "allocs/item"},
	{"registry.ingest_snapshot_p99_us", "us"},
	{"registry.snapshot_ms", "ms"},
	{"registry.http_update_ns_per_item", "ns/item"},
	{"registry.http_top10_us", "us"},
	{"registry.http_top100_us", "us"},
	{"registry.http_hh_us", "us"},
	{"registry.http_estimate_us", "us"},
	{"registry.view_rebuild_ms", "ms"},
	{"registry.view_reuse_frac", "fraction"},
	{"registry.absorb_ms", "ms"},
	{"registry.recover_s", "s"},
	{"persist.append_us_p50", "us"},
	{"persist.append_us_p99", "us"},
	{"persist.append2_us_p99", "us"},
	{"persist.sync_us_p50", "us"},
	{"persist.wal_bytes_per_item", "B/item"},
	{"persist.replay_items_per_s", "items/s"},
	{"persist.snapshot_write_ms", "ms"},
	{"heavyhitters.update_ns_per_item", "ns/item"},
	{"heavyhitters.batch_distinct_frac", "fraction"},
	{"heavyhitters.top100_cold_us", "us"},
	{"heavyhitters.top100_warm_us", "us"},
	{"heavyhitters.estimate_cold_ns", "ns"},
	{"heavyhitters.estimate_warm_ns", "ns"},
	{"heavyhitters.hh_us", "us"},
	{"heavyhitters.merge_ms", "ms"},
	{"heavyhitters.encode_ms", "ms"},
	{"heavyhitters.bytes_per_tracked_key", "B/key"},
	{"spacesaving.addnbatch_ns_per_key", "ns/key"},
	{"arena.get_hit_ns", "ns"},
	{"arena.get_miss_ns", "ns"},
	{"arena.put_delete_ns", "ns"},
	{"trace.overhead_frac", "fraction"},
	{"trace.spans", "count"},
}

// traceResult is the traced run's output.
type traceResult struct {
	metrics    map[string]metric
	violations []string
}

// replayPass runs one in-process replay with spans on or off.
func (b *bench) replayPass(on bool, pass string) (*replayer, error) {
	r, err := b.newReplayer(newTracer(on), pass)
	if err != nil {
		return nil, err
	}
	err = r.run()
	if cerr := r.close(); err == nil {
		err = cerr
	}
	return r, err
}

// runTraced replays the run's inputs in process twice, spans off and
// then on, writes the spans, and derives every per-layer metric.
func (b *bench) runTraced(e2e *e2eResult) (*traceResult, error) {
	off, err := b.replayPass(false, "replay-off")
	if err != nil {
		return nil, err
	}
	r, err := b.replayPass(true, "replay-on")
	if err != nil {
		return nil, err
	}
	tr := r.tr
	path := filepath.Join(filepath.Dir(b.dir), "spans", fmt.Sprintf("%s-seed%d.jsonl", b.w.name, b.seed))
	if err := tr.writeSpans(path); err != nil {
		return nil, err
	}
	overhead := r.loop.Seconds()/off.loop.Seconds() - 1
	fmt.Printf("perfbench: replay loop %.3fs traced, %.3fs untraced: tracing overhead %.1f%%\n",
		r.loop.Seconds(), off.loop.Seconds(), 100*overhead)

	st := tr.stats()
	us, ms := time.Microsecond, time.Millisecond
	self := st["registry.ingest"].total - st["heavyhitters.update"].total
	if b.w.durable() {
		self -= st["persist.append"].total
	}
	var bytesPerKey float64
	if m, ok := r.twin.Memory(); ok {
		bytesPerKey = m.BytesPerTrackedKey()
	}
	values := map[string]float64{
		"e2e.ingest_items_per_s":             e2e.medianRound(func(s roundStats) float64 { return s.ingestPerS }),
		"e2e.ack_p50_ms":                     e2e.medianRound(func(s roundStats) float64 { return s.ackP50 }),
		"e2e.ack_p99_ms":                     e2e.medianRound(func(s roundStats) float64 { return s.ackP99 }),
		"e2e.query_p50_ms":                   e2e.medianRound(func(s roundStats) float64 { return s.queryP50 }),
		"e2e.queries_per_s":                  e2e.medianRound(func(s roundStats) float64 { return s.queriesS }),
		"e2e.setup_wall_s":                   e2e.medianBoot(func(b bootTimes) time.Duration { return b.wall }),
		"e2e.query_p99_ms":                   e2e.medianRound(func(s roundStats) float64 { return s.queryP99 }),
		"gen.late_p99_ms":                    e2e.medianRound(func(s roundStats) float64 { return s.lateP99 }),
		"gen.encode_ns_per_item":             st["gen.encode"].perItem(),
		"wire.parse_ns_per_item":             st["wire.parse"].perItem(),
		"wire.bytes_per_item":                float64(r.frameBytes) / float64(r.fed),
		"registry.route_ns":                  st["registry.route"].perItem(),
		"registry.ingest_ns_per_item":        st["registry.ingest"].perItem(),
		"registry.ingest_self_ns_per_item":   float64(self) / float64(st["registry.ingest"].items),
		"registry.ingest_p99_us":             st["registry.ingest"].q(0.99, us),
		"registry.allocs_per_item":           r.allocsPerItem,
		"registry.ingest_snapshot_p99_us":    st["registry.ingest_during_snapshot"].q(0.99, us),
		"registry.snapshot_ms":               st["registry.snapshot"].q(0.5, ms),
		"registry.http_update_ns_per_item":   st["registry.http_update"].perItem(),
		"registry.http_top10_us":             st["registry.http_top10"].q(0.5, us),
		"registry.http_top100_us":            st["registry.http_top100"].q(0.5, us),
		"registry.http_hh_us":                st["registry.http_hh"].q(0.5, us),
		"registry.http_estimate_us":          st["registry.http_estimate"].q(0.5, us),
		"registry.view_rebuild_ms":           st["registry.view"].q(0.5, ms),
		"registry.view_reuse_frac":           r.viewReuse,
		"registry.absorb_ms":                 st["registry.absorb"].q(0.5, ms),
		"registry.recover_s":                 st["registry.recover"].total.Seconds(),
		"persist.append_us_p50":              st["persist.append"].q(0.5, us),
		"persist.append_us_p99":              st["persist.append"].q(0.99, us),
		"persist.append2_us_p99":             st["persist.append2"].q(0.99, us),
		"persist.sync_us_p50":                st["persist.sync"].q(0.5, us),
		"persist.wal_bytes_per_item":         r.walBytesPerItem,
		"persist.replay_items_per_s":         float64(st["persist.replay"].items) / st["persist.replay"].total.Seconds(),
		"persist.snapshot_write_ms":          st["persist.snapshot_write"].q(0.5, ms),
		"heavyhitters.update_ns_per_item":    st["heavyhitters.update"].perItem(),
		"heavyhitters.batch_distinct_frac":   float64(r.distinct) / float64(r.fed),
		"heavyhitters.top100_cold_us":        st["heavyhitters.top100_cold"].q(0.5, us),
		"heavyhitters.top100_warm_us":        st["heavyhitters.top100_warm"].perItem() / float64(us),
		"heavyhitters.estimate_cold_ns":      st["heavyhitters.estimate_cold"].q(0.5, time.Nanosecond),
		"heavyhitters.estimate_warm_ns":      st["heavyhitters.estimate_warm"].perItem(),
		"heavyhitters.hh_us":                 st["heavyhitters.hh"].q(0.5, us),
		"heavyhitters.merge_ms":              st["heavyhitters.merge"].q(0.5, ms),
		"heavyhitters.encode_ms":             st["heavyhitters.encode"].q(0.5, ms),
		"heavyhitters.bytes_per_tracked_key": bytesPerKey,
		"spacesaving.addnbatch_ns_per_key":   st["spacesaving.addnbatch"].perItem(),
		"arena.get_hit_ns":                   st["arena.get_hit"].perItem(),
		"arena.get_miss_ns":                  st["arena.get_miss"].perItem(),
		"arena.put_delete_ns":                st["arena.put_delete"].perItem(),
		"trace.overhead_frac":                overhead,
		"trace.spans":                        float64(len(tr.spans)),
	}
	res := &traceResult{metrics: make(map[string]metric, len(perLayer))}
	for _, m := range perLayer {
		v, ok := values[m.name]
		if !ok {
			return nil, fmt.Errorf("no value for per-layer metric %s", m.name)
		}
		res.metrics[m.name] = metric{v, m.unit}
	}
	res.violations = append(off.violations, r.violations...)
	for _, v := range res.violations {
		fmt.Printf("perfbench: replay check failed: %s\n", v)
	}
	return res, nil
}
