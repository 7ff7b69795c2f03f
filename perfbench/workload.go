package main

import (
	"fmt"

	hh "repro"
	"repro/internal/registry"
)

// Shape shared by every workload: the ROADMAP re-anchor measurement
// shape (string keys, zipf 1.1 over a 100k-key universe, capacity
// 1024 x 8 shards, 512-key batches).
const (
	summaryName = "hh"
	universe    = 100_000
	zipfAlpha   = 1.1
	batchLen    = 512
	capacity    = 1024
	shards      = 8
	// poolBatches is how many distinct batches a run cycles through:
	// 2^20 items, enough that the cycle never shows in the summary.
	poolBatches = 2048
	// hhPhi is the heavy-hitter threshold of the query mix and of the
	// completeness check.
	hhPhi = 0.001
	// tailK is the k of the k-tail (A, B) bound the final checkpoint
	// checks.
	tailK = 10
)

// workload is one traffic mix. See README.md for why each exists.
type workload struct {
	name string
	// http drives ingest over HTTP POST /update on one connection;
	// otherwise over two hhwire TCP connections.
	http bool
	// fsync is the durability mode ("" = in-memory registry).
	fsync string
	// snapshotInterval is the daemon's periodic snapshot cadence.
	snapshotInterval string
	// seedSnapItems and seedWALItems size the data directory the daemon
	// boots from: items captured in a committed snapshot, then items
	// left in the WAL tail.
	seedSnapItems, seedWALItems int
	// openRate is the open-loop ingest rate in items/s.
	openRate float64
	// mergeEvery is N in "a /merge every Nth reader request".
	mergeEvery int
	// Shares of each round (--seconds / rounds) spent in each phase.
	satShare, openShare, idleQueryShare float64
}

var workloads = []workload{
	{
		name:     "ingest-zipf-wire",
		openRate: 1_000_000,
		satShare: 0.35, openShare: 0.5, idleQueryShare: 0.15,
	},
	{
		name:             "serve-mixed-http",
		http:             true,
		fsync:            hh.FsyncInterval,
		snapshotInterval: "1s",
		seedSnapItems:    1 << 20,
		seedWALItems:     1 << 20,
		openRate:         250_000,
		mergeEvery:       40,
		satShare:         0.3, openShare: 0.7,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// durable reports whether the daemon runs with a WAL.
func (w workload) durable() bool { return w.fsync != "" }

// summarySpec is the one summary every workload serves.
func summarySpec() hh.Spec { return hh.Spec{Capacity: capacity, Shards: shards} }

// config is the daemon's registry configuration; dir is its data
// directory (ignored for in-memory workloads).
func (w workload) config(dir string) registry.Config {
	cfg := registry.Config{Summaries: map[string]hh.Spec{summaryName: summarySpec()}}
	if w.durable() {
		cfg.Durability = &hh.DurabilitySpec{Dir: dir, Fsync: w.fsync, SnapshotInterval: w.snapshotInterval}
	}
	return cfg
}
