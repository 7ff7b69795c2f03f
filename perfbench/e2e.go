package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

const (
	// boots is how many times a run boots the daemon to measure
	// setup_s (each boot gets its own copy of the seeded data
	// directory, booted exactly once); the last one serves the run.
	boots = 5
	// rounds is how many times a run cycles through its phases.
	rounds = 10
	// wireConns and wireWindow shape the hhwire load: connections, and
	// frames in flight per connection in the closed loop.
	wireConns  = 2
	wireWindow = 8
)

// e2eResult is one end-to-end run, tracing off.
type e2eResult struct {
	setup  []bootTimes
	rounds []roundStats
	// Totals behind the per-round figures, for the run's report.
	acks, sends, queries int
	merges               int64
	stealFrac            float64 // share of the guest's CPU time the host stole during the rounds
	rssMiB               float64
	snapEpoch            string
	check                checkResult
	ops                  opCounter
	errs                 []string
}

// roundStats are one round's figures; the run reports the median
// round of each, so a stall that hits fewer than half of the rounds
// (another tenant on the host, a GC) barely moves the run's figure.
type roundStats struct {
	ingestPerS                   float64
	ingestCPU                    float64 // daemon CPU ns per acknowledged item, closed loop
	ackP50, ackP99, lateP99      float64 // ms
	queryP50, queryP99, queriesS float64 // ms, ms, 1/s
	queryCPU                     float64 // daemon CPU ms per query of the reader
}

// medianBoot returns the median over boots of one boot time, in s.
func (r *e2eResult) medianBoot(f func(bootTimes) time.Duration) float64 {
	xs := make([]float64, len(r.setup))
	for i, bt := range r.setup {
		xs[i] = f(bt).Seconds()
	}
	return median(xs)
}

// medianRound returns the median over rounds of one figure.
func (r *e2eResult) medianRound(f func(roundStats) float64) float64 {
	xs := make([]float64, len(r.rounds))
	for i, rs := range r.rounds {
		xs[i] = f(rs)
	}
	return median(xs)
}

func (r *e2eResult) absorb(attempted, failed int64, err error) {
	r.ops.add(attempted, failed)
	if err != nil && len(r.errs) < 8 {
		r.errs = append(r.errs, err.Error())
	}
}

// writeBootDirs prepares one directory per boot: a config file and,
// for durable workloads, a private copy of the seeded data directory.
func (b *bench) writeBootDirs(seedDir string) ([]string, error) {
	cfgs := make([]string, boots)
	for i := range cfgs {
		dir := filepath.Join(b.dir, fmt.Sprintf("boot-%d", i))
		data := filepath.Join(dir, "data")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if b.w.durable() {
			if err := copyDir(seedDir, data); err != nil {
				return nil, err
			}
		}
		raw, err := json.Marshal(b.w.config(data))
		if err != nil {
			return nil, err
		}
		cfgs[i] = filepath.Join(dir, "config.json")
		if err := os.WriteFile(cfgs[i], raw, 0o644); err != nil {
			return nil, err
		}
	}
	return cfgs, nil
}

// runE2E boots the daemon, drives the workload's phases for --seconds
// seconds, and checks the served answers at the end.
func (b *bench) runE2E(ctx context.Context) (*e2eResult, error) {
	w, in := b.w, b.in
	seedDir := filepath.Join(b.dir, "seed")
	if w.durable() {
		if err := buildDataDir(seedDir, w, in); err != nil {
			return nil, fmt.Errorf("seeding the data directory: %w", err)
		}
	}
	cfgs, err := b.writeBootDirs(seedDir)
	if err != nil {
		return nil, err
	}

	r := &e2eResult{}
	var d *daemon
	for i, cfg := range cfgs {
		nd, bt, err := b.daemons.boot(ctx, b.hhserverd, cfg)
		r.absorb(1, boolInt(err != nil), err)
		if err != nil {
			continue
		}
		r.setup = append(r.setup, bt)
		if d != nil {
			b.daemons.kill(d)
		}
		d = nd
		if i < len(cfgs)-1 {
			b.daemons.kill(d)
			d = nil
		}
	}
	if d == nil {
		return nil, fmt.Errorf("the serving daemon did not boot: %s", strings.Join(r.errs, "; "))
	}
	defer b.daemons.kill(d)

	base := "http://" + d.httpAddr
	reader := newHTTPClient()
	ingest := newHTTPClient()
	acked := make([]uint32, in.batches())
	curs := make([]cursor, wireConns)
	for c := range curs {
		curs[c] = cursor{next: c, step: wireConns, n: in.batches()}
	}
	// --seconds is spread over interleaved rounds of every phase.
	round := time.Duration(b.seconds) * time.Second / rounds
	phase := func(share float64) time.Duration { return time.Duration(share * float64(round)) }
	// cpuSince is the daemon CPU time in ns since cpu0; a failed read
	// counts as a failed operation.
	cpuSince := func(cpu0 time.Duration) float64 {
		cpu1, err := d.cpuTime()
		if err != nil {
			r.absorb(1, 1, err)
			return 0
		}
		return float64(cpu1 - cpu0)
	}
	per := func(x float64, n int64) float64 {
		if n == 0 {
			return 0
		}
		return x / float64(n)
	}
	steal0, total0 := hostSteal()
	for i := 0; i < rounds; i++ {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		var rs roundStats
		var ack, late, query []time.Duration
		collect := func(lr *loadResult) int64 {
			r.absorb(lr.attempted, lr.failed, lr.err)
			for b, n := range lr.acked {
				acked[b] += n
			}
			ack = append(ack, lr.lat...)
			late = append(late, lr.late...)
			return lr.items
		}
		// At most wireConns connections are open at a time: drop the
		// HTTP clients' idle ones before the hhwire phase.
		ingest.CloseIdleConnections()
		reader.CloseIdleConnections()
		// Closed-loop saturation on both hhwire connections.
		start := time.Now()
		cpu0, _ := d.cpuTime()
		var items int64
		for _, lr := range b.runWire(d.wireAddr, curs, func(int) plan {
			return plan{until: start.Add(phase(w.satShare)), window: wireWindow}
		}) {
			items += collect(lr)
		}
		rs.ingestPerS = float64(items) / time.Since(start).Seconds()
		rs.ingestCPU = per(cpuSince(cpu0), items)

		var qr queryResult
		var openItems int64
		start = time.Now()
		cpu0, _ = d.cpuTime()
		if !w.http {
			// The open loop at the pinned rate (connection c's frames
			// offset by c/wireConns of an interval), then the reader on
			// the idle daemon.
			interval := time.Duration(float64(wireConns*batchLen) / w.openRate * float64(time.Second))
			for _, lr := range b.runWire(d.wireAddr, curs, func(c int) plan {
				return plan{until: start.Add(phase(w.openShare)), t0: start.Add(time.Duration(c) * interval / wireConns), interval: interval}
			}) {
				collect(lr)
			}
			start = time.Now()
			cpu0, _ = d.cpuTime()
			readQueries(reader, base, in, start.Add(phase(w.idleQueryShare)), 0, &qr)
		} else {
			// Open-loop HTTP ingest on connection 1 beside the closed-loop
			// reader (with merges) on connection 2.
			until := start.Add(phase(w.openShare))
			open := newLoadResult(in)
			done := make(chan struct{})
			go func() {
				defer close(done)
				interval := time.Duration(float64(batchLen) / w.openRate * float64(time.Second))
				driveHTTP(ingest, base, in, &curs[0], plan{until: until, t0: start, interval: interval}, open)
			}()
			readQueries(reader, base, in, until, w.mergeEvery, &qr)
			<-done
			openItems = collect(open)
		}
		rs.queriesS = float64(len(qr.lat)) / time.Since(start).Seconds()
		// The reader's share of the daemon CPU: the phase's CPU minus any
		// ingest beside it, charged at this round's closed-loop cost per
		// item.
		rs.queryCPU = per(cpuSince(cpu0)-float64(openItems)*rs.ingestCPU, int64(len(qr.lat))) / 1e6
		r.absorb(qr.attempted, qr.failed, qr.err)
		r.merges += qr.merges
		query = qr.lat
		unit := time.Millisecond
		rs.ackP50, rs.ackP99 = durQuantile(ack, 0.5, unit), durQuantile(ack, 0.99, unit)
		rs.lateP99 = durQuantile(late, 0.99, unit)
		rs.queryP50, rs.queryP99 = durQuantile(query, 0.5, unit), durQuantile(query, 0.99, unit)
		r.rounds = append(r.rounds, rs)
		r.acks += len(ack)
		r.sends += len(late)
		r.queries += len(query)
	}
	if steal1, total1 := hostSteal(); total1 > total0 {
		r.stealFrac = float64(steal1-steal0) / float64(total1-total0)
	}

	exact := exactCounts(in, in.seedCounts(), acked, r.merges)
	r.check = checkpoint(reader, base, in, exact)
	r.ops.add(r.check.ops.attempted, r.check.ops.failed)
	if r.rssMiB, err = d.peakRSSMiB(); err != nil {
		return nil, err
	}
	if w.durable() {
		cur, err := os.ReadFile(filepath.Join(b.dir, fmt.Sprintf("boot-%d", boots-1), "data", "CURRENT"))
		if err == nil {
			r.snapEpoch = strings.TrimSpace(string(cur))
		}
	}
	return r, nil
}

// runWire drives every hhwire connection through its plan at once.
func (b *bench) runWire(addr string, curs []cursor, p func(c int) plan) []*loadResult {
	res := make([]*loadResult, len(curs))
	var wg sync.WaitGroup
	for c := range res {
		res[c] = newLoadResult(b.in)
		wg.Add(1)
		go func() {
			defer wg.Done()
			driveWire(addr, b.in, &curs[c], p(c), res[c])
		}()
	}
	wg.Wait()
	return res
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
