package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	hh "repro"
	"repro/internal/arena"
	"repro/internal/persist"
	"repro/internal/registry"
	"repro/internal/spacesaving"
	"repro/internal/wire"
)

const (
	// replayBatches is the fixed work of one replay pass (the traced
	// and the untraced pass do the same work, which is what makes their
	// wall-time difference the tracing overhead).
	replayBatches = 1024
	// queryEvery batches, the replay runs one query round.
	queryEvery = 8
	// snapshotRounds Registry.Snapshot calls each race ingest.
	snapshotRounds = 5
	// appendersBatches is each concurrent appender's share in the
	// two-appender persist measurement.
	appendersBatches = 64
	// allocBatches are ingested between two runtime.ReadMemStats.
	allocBatches = 128
	// queryID offsets query-round span IDs past every batch ID.
	queryID = 1 << 32
	// shortCallReps is how many times one span repeats a sub-microsecond
	// call; the figure is the span over the repeats.
	shortCallReps = 64
)

// replayer is one in-process replay pass over the workload's inputs:
// the registry the daemon would run, plus the twin instances that time
// the layers IngestBatch calls internally.
type replayer struct {
	b   *bench
	tr  *tracer
	dir string

	reg   *registry.Registry
	srv   *registry.Server
	entry *registry.Entry

	store   *persist.Store // twin of the registry's WAL
	storeOp persist.Options
	seq     persist.Seq
	twin    hh.Summary[string] // twin of the registry's live summary
	ss      [shards]*spacesaving.StreamSummary[string]
	idx     *arena.StringIndex
	ring    []uint32 // keys in idx, oldest first
	head    int
	present map[uint32]bool
	agent   hh.Summary[string]

	frame, body []byte
	keys        []string
	counts      map[uint32]uint32
	shardKeys   [shards][]string
	shardCounts [shards][]uint32
	hits, miss  []uint32
	top         []hh.WeightedEntry[string]

	fed, distinct, frameBytes int
	viewCalls                 int
	absorbed                  int
	httpUpdated               int
	allocsPerItem             float64
	walBytesPerItem           float64
	viewReuse                 float64       // share of View calls served without a rebuild
	loop                      time.Duration // wall time of the batch and query loop
	violations                []string
}

func (r *replayer) violate(format string, args ...any) {
	if len(r.violations) < 8 {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

// newReplayer recovers the workload's registry in process (a fresh
// copy of the seeded data directory for durable workloads) and builds
// the twins.
func (b *bench) newReplayer(tr *tracer, pass string) (*replayer, error) {
	r := &replayer{b: b, tr: tr, dir: filepath.Join(b.dir, pass), present: make(map[uint32]bool), counts: make(map[uint32]uint32)}
	data := filepath.Join(r.dir, "data")
	if b.w.durable() {
		if err := copyDir(filepath.Join(b.dir, "seed"), data); err != nil {
			return nil, err
		}
	}
	s := tr.begin(0, -1, "registry.recover")
	reg, err := registry.New(b.w.config(data))
	tr.end(s, 0)
	if err != nil {
		return nil, fmt.Errorf("replay: recovering the registry: %w", err)
	}
	r.reg = reg
	r.srv = registry.NewServer(reg, 0)
	r.entry, _ = reg.Get(summaryName)
	built := false
	defer func() {
		if !built {
			_ = r.close() // the construction error is the one to report
		}
	}()

	// The twin store runs fsync=interval: the mode of the durable
	// workload, and for the in-memory one what durability would cost.
	r.storeOp = persist.Options{Dir: filepath.Join(r.dir, "twin"), Fsync: persist.FsyncInterval}
	if r.store, err = persist.Open(r.storeOp); err != nil {
		return nil, err
	}
	if r.twin, err = hh.NewFromSpec[string](r.entry.Spec()); err != nil {
		return nil, err
	}
	for i := range r.ss {
		r.ss[i] = spacesaving.New[string](capacity)
		r.ss[i].EnableArena(b.seed)
	}
	// The index starts full with the pool's first capacity distinct keys.
	r.idx = arena.NewStringIndex(capacity, b.seed)
	for _, id := range b.in.ids {
		if len(r.ring) == capacity {
			break
		}
		if !r.present[id] {
			r.present[id] = true
			r.ring = append(r.ring, id)
			r.idx.Put(b.in.keys[id], 0)
		}
	}
	if r.agent, err = hh.Decode[string](bytes.NewReader(b.in.blob)); err != nil {
		return nil, err
	}
	built = true
	return r, nil
}

// batch replays pool batch pb as batch number id: encode, parse,
// route, ingest, then the twins, the counter kernel and the arena.
func (r *replayer) batch(id uint64, pb int) {
	tr, in := r.tr, r.b.in
	ids := in.batchIDs(pb)
	n := len(ids)
	root := tr.begin(id, -1, "batch")

	s := tr.begin(id, root, "gen.encode")
	r.body = r.body[:0]
	for _, k := range ids {
		r.body = registry.AppendBinaryRecord(r.body, in.keys[k])
	}
	r.frame = wire.AppendFrame(r.frame[:0], summaryName, wire.FlagAck, r.body)
	tr.end(s, n)
	r.frameBytes += len(r.frame)

	s = tr.begin(id, root, "wire.parse")
	nameLen, _, _, err := wire.ParseHeader(r.frame[:wire.HeaderLen], 0)
	if err == nil {
		r.keys, err = registry.AppendBinaryKeysBorrowed(r.keys[:0], r.frame[wire.HeaderLen+nameLen:])
	}
	tr.end(s, n)
	if err != nil || len(r.keys) != n {
		r.violate("parsing replayed frame %d: %v (%d keys)", pb, err, len(r.keys))
		return
	}

	// Calls this short are timed over repeats: one span around a single
	// call would measure mostly the clock reads.
	s = tr.begin(id, root, "registry.route")
	var e *registry.Entry
	ok := true
	for i := 0; i < shortCallReps; i++ {
		var found bool
		e, found = r.reg.Get(summaryName)
		ok = ok && found
	}
	tr.end(s, shortCallReps)
	if !ok {
		r.violate("summary %q not routable", summaryName)
		return
	}
	s = tr.begin(id, root, "registry.ingest")
	err = e.IngestBatch(r.keys)
	tr.end(s, n)
	if err != nil {
		r.violate("IngestBatch: %v", err)
	}
	s = tr.begin(id, root, "persist.append")
	err = r.store.AppendBatch(summaryName, &r.seq, r.keys)
	tr.end(s, n)
	if err != nil {
		r.violate("twin AppendBatch: %v", err)
	}
	s = tr.begin(id, root, "heavyhitters.update")
	r.twin.UpdateBatch(r.keys)
	tr.end(s, n)
	r.fed += n

	// Coalesce by key and partition by a hash of the key rank: the
	// kernel's input, built by the benchmark (not a layer).
	s = tr.begin(id, root, "gen.coalesce")
	clear(r.counts)
	for _, k := range ids {
		r.counts[k]++
	}
	for i := range r.shardKeys {
		r.shardKeys[i] = r.shardKeys[i][:0]
		r.shardCounts[i] = r.shardCounts[i][:0]
	}
	r.hits, r.miss = r.hits[:0], r.miss[:0]
	for k, c := range r.counts {
		sh := splitmix64(uint64(k)) % shards
		r.shardKeys[sh] = append(r.shardKeys[sh], in.keys[k])
		r.shardCounts[sh] = append(r.shardCounts[sh], c)
		if r.present[k] {
			r.hits = append(r.hits, k)
		} else {
			r.miss = append(r.miss, k)
		}
	}
	tr.end(s, n)
	r.distinct += len(r.counts)

	s = tr.begin(id, root, "spacesaving.addnbatch")
	for i, ss := range r.ss {
		ss.AddNBatch(r.shardKeys[i], r.shardCounts[i], nil)
	}
	tr.end(s, len(r.counts))

	// The arena index at capacity: probe the batch's resident keys,
	// probe the absent ones, then evict the oldest resident (FIFO) and
	// insert each absent key, the miss path of a full summary.
	s = tr.begin(id, root, "arena.get_hit")
	for _, k := range r.hits {
		r.idx.Get(in.keys[k])
	}
	tr.end(s, len(r.hits))
	s = tr.begin(id, root, "arena.get_miss")
	for _, k := range r.miss {
		r.idx.Get(in.keys[k])
	}
	tr.end(s, len(r.miss))
	s = tr.begin(id, root, "arena.put_delete")
	for i, k := range r.miss {
		r.idx.Delete(in.keys[r.ring[(r.head+i)%capacity]])
		r.idx.Put(in.keys[k], int32(i))
	}
	tr.end(s, len(r.miss))
	for _, k := range r.miss {
		delete(r.present, r.ring[r.head])
		r.present[k] = true
		r.ring[r.head] = k
		r.head = (r.head + 1) % capacity
	}
	tr.end(root, n)
}

// serve runs one request through the daemon's HTTP handler in process.
func (r *replayer) serve(id uint64, parent int32, name, method, target string, body []byte, items int) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, target, rd)
	if body != nil {
		req.Header.Set("Content-Type", registry.ContentTypeBinary)
	}
	rec := httptest.NewRecorder()
	s := r.tr.begin(id, parent, name)
	r.srv.ServeHTTP(rec, req)
	r.tr.end(s, items)
	if rec.Code != http.StatusOK {
		r.violate("%s %s: status %d: %s", method, target, rec.Code, rec.Body.String())
	}
}

// query runs query round q: the summary's query calls on the twin, and
// the registry's view, merge and HTTP handlers on the registry.
func (r *replayer) query(q int, pb int) {
	tr := r.tr
	id := uint64(queryID + q)
	root := tr.begin(id, -1, "query")
	if q%2 == 0 {
		s := tr.begin(id, root, "heavyhitters.top100_cold")
		r.top = r.twin.TopAppend(r.top[:0], 100)
		tr.end(s, 1)
		s = tr.begin(id, root, "heavyhitters.top100_warm")
		for i := 0; i < shortCallReps; i++ {
			r.top = r.twin.TopAppend(r.top[:0], 100)
		}
		tr.end(s, shortCallReps)
		s = tr.begin(id, root, "heavyhitters.hh")
		r.twin.HeavyHitters(hhPhi)
		tr.end(s, 1)
	} else {
		key := r.b.in.estKeys[q%len(r.b.in.estKeys)]
		s := tr.begin(id, root, "heavyhitters.estimate_cold")
		r.twin.Estimate(key)
		tr.end(s, 1)
		s = tr.begin(id, root, "heavyhitters.estimate_warm")
		for i := 0; i < shortCallReps; i++ {
			r.twin.Estimate(key)
		}
		tr.end(s, shortCallReps)
	}
	if q%4 == 0 {
		s := tr.begin(id, root, "heavyhitters.merge")
		_, err := hh.MergeSummaries(capacity, r.twin, r.agent)
		tr.end(s, 1)
		if err != nil {
			r.violate("MergeSummaries: %v", err)
		}
		s = tr.begin(id, root, "heavyhitters.encode")
		err = r.twin.Encode(io.Discard)
		tr.end(s, 1)
		if err != nil {
			r.violate("Encode: %v", err)
		}
	}
	s := tr.begin(id, root, "persist.sync")
	err := r.store.Sync()
	tr.end(s, 1)
	if err != nil {
		r.violate("twin Sync: %v", err)
	}

	if q%16 == 0 {
		s := tr.begin(id, root, "registry.absorb")
		_, err := r.entry.AbsorbBlob(bytes.NewReader(r.b.in.blob))
		tr.end(s, 1)
		if err != nil {
			r.violate("AbsorbBlob: %v", err)
		}
		r.absorbed++
	}
	s = tr.begin(id, root, "registry.view")
	_, err = r.entry.View()
	tr.end(s, 1)
	r.viewCalls++
	if err != nil {
		r.violate("View: %v", err)
	}
	prefix := "/v1/" + summaryName
	r.serve(id, root, "registry.http_top10", http.MethodGet, prefix+"/top?k=10", nil, 1)
	r.serve(id, root, "registry.http_top100", http.MethodGet, prefix+"/top?k=100", nil, 1)
	r.serve(id, root, "registry.http_hh", http.MethodGet, prefix+fmt.Sprintf("/heavyhitters?phi=%g", hhPhi), nil, 1)
	key := r.b.in.estKeys[q%len(r.b.in.estKeys)]
	r.serve(id, root, "registry.http_estimate", http.MethodGet, prefix+"/estimate?key="+url.QueryEscape(key), nil, 1)
	r.viewCalls += 4
	r.serve(id, root, "registry.http_update", http.MethodPost, prefix+"/update", r.b.in.body(pb), batchLen)
	r.httpUpdated += batchLen
	tr.end(root, 0)
}

// snapshots races Registry.Snapshot against IngestBatch on a durable
// registry: the workload's own, or for the in-memory workload one with
// fsync=interval prefilled from the pool.
func (r *replayer) snapshots() error {
	tr, in := r.tr, r.b.in
	reg := r.reg
	if !reg.Durable() {
		cfg := r.b.w.config("")
		cfg.Durability = &hh.DurabilitySpec{Dir: filepath.Join(r.dir, "snapreg"), Fsync: hh.FsyncInterval}
		var err error
		if reg, err = registry.New(cfg); err != nil {
			return err
		}
		defer reg.Halt() // a twin: its WAL is never read back
		e, _ := reg.Get(summaryName)
		keys := make([]string, 0, batchLen)
		for pb := 0; pb < 256; pb++ {
			if err := e.IngestBatch(in.appendKeys(keys[:0], in.batchIDs(pb))); err != nil {
				return err
			}
		}
	}
	e, _ := reg.Get(summaryName)
	keys := make([]string, 0, batchLen)
	pb := 0
	ingest := func(id uint64, parent int32, name string) error {
		keys = in.appendKeys(keys[:0], in.batchIDs(pb%in.batches()))
		pb++
		s := tr.begin(id, parent, name)
		err := e.IngestBatch(keys)
		tr.end(s, len(keys))
		return err
	}
	for round := 0; round < snapshotRounds; round++ {
		id := uint64(queryID + 1<<20 + round)
		// One batch first, so the snapshot has something to commit.
		if err := ingest(id, -1, "registry.ingest_before_snapshot"); err != nil {
			return err
		}
		var start, end time.Time
		var snapErr error
		done := make(chan struct{})
		go func() {
			defer close(done)
			start = time.Now()
			_, snapErr = reg.Snapshot()
			end = time.Now()
		}()
	race:
		for {
			if err := ingest(id, -1, "registry.ingest_during_snapshot"); err != nil {
				<-done
				return err
			}
			select {
			case <-done:
				break race
			default:
			}
		}
		tr.add(id, -1, "registry.snapshot", start, end, 0)
		if snapErr != nil {
			return snapErr
		}
	}
	return nil
}

// persistOps measures the WAL alone on the twin store: two concurrent
// appenders, its size per item, replay of the whole log, and snapshot
// writes.
func (r *replayer) persistOps() error {
	tr, in := r.tr, r.b.in
	type sample struct{ start, end time.Time }
	var wg sync.WaitGroup
	samples := make([][]sample, 2)
	errs := make([]error, 2)
	for a := range samples {
		keys := make([][]string, appendersBatches)
		for i := range keys {
			keys[i] = in.appendKeys(nil, in.batchIDs((a*appendersBatches+i)%in.batches()))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var seq persist.Seq
			for _, k := range keys {
				start := time.Now()
				if err := r.store.AppendBatch(fmt.Sprintf("appender-%d", a), &seq, k); err != nil {
					errs[a] = err
					return
				}
				samples[a] = append(samples[a], sample{start, time.Now()})
			}
		}()
	}
	wg.Wait()
	for a, ss := range samples {
		if errs[a] != nil {
			return errs[a]
		}
		for i, s := range ss {
			tr.add(uint64(queryID+2<<20+a*appendersBatches+i), -1, "persist.append2", s.start, s.end, batchLen)
		}
	}
	appended := r.fed + 2*appendersBatches*batchLen
	if err := r.store.Sync(); err != nil {
		return err
	}
	var walBytes int64
	entries, err := os.ReadDir(filepath.Join(r.storeOp.Dir, persist.WALDirName))
	if err != nil {
		return err
	}
	for _, de := range entries {
		if fi, err := de.Info(); err == nil {
			walBytes += fi.Size()
		}
	}
	r.walBytesPerItem = float64(walBytes) / float64(appended)
	if err := r.store.Close(); err != nil {
		return err
	}

	st, err := persist.Open(r.storeOp)
	if err != nil {
		return err
	}
	defer st.Close()
	id := uint64(queryID + 3<<20)
	s := tr.begin(id, -1, "persist.replay")
	_, err = st.ReplayWAL(func(persist.Record) error { return nil })
	tr.end(s, appended)
	if err != nil {
		return err
	}
	var blob bytes.Buffer
	if err := r.twin.Encode(&blob); err != nil {
		return err
	}
	spec, err := json.Marshal(r.entry.Spec())
	if err != nil {
		return err
	}
	snap := persist.SummarySnapshot{Name: summaryName, Spec: spec, Seq: r.seq.Load(), N: r.twin.N(),
		Len: r.twin.Len(), Algorithm: r.twin.Algorithm().String(), Blob: blob.Bytes()}
	for i := 0; i < 3; i++ {
		boundary, err := st.BeginSnapshot()
		if err != nil {
			return err
		}
		s := tr.begin(id+1+uint64(i), -1, "persist.snapshot_write")
		err = st.WriteSnapshot(boundary, []persist.SummarySnapshot{snap})
		tr.end(s, 1)
		if err != nil {
			return err
		}
	}
	return nil
}

// measureAllocs counts heap allocations per item of IngestBatch alone.
func (r *replayer) measureAllocs() error {
	in := r.b.in
	batches := make([][]string, allocBatches)
	for i := range batches {
		batches[i] = in.appendKeys(nil, in.batchIDs(i%in.batches()))
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, keys := range batches {
		if err := r.entry.IngestBatch(keys); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&m1)
	r.allocsPerItem = float64(m1.Mallocs-m0.Mallocs) / float64(allocBatches*batchLen)
	return nil
}

// run is one replay pass: the batch and query loop (timed as a whole
// for the tracing overhead), then the snapshot, WAL and allocation
// measurements, then a consistency check of the registry's mass.
func (r *replayer) run() error {
	gen0 := r.entry.ReadStats().SnapshotGeneration
	n0 := r.entry.ReadStats().N
	start := time.Now()
	for i := 0; i < replayBatches; i++ {
		pb := i % r.b.in.batches()
		r.batch(uint64(i), pb)
		if i%queryEvery == queryEvery-1 {
			r.query(i/queryEvery, pb)
		}
	}
	r.loop = time.Since(start)
	st := r.entry.ReadStats()
	if rebuilds := st.SnapshotGeneration - gen0; r.viewCalls > 0 {
		r.viewReuse = 1 - float64(rebuilds)/float64(r.viewCalls)
	}
	want := n0 + float64(r.fed+r.httpUpdated) + float64(r.absorbed*agentItems)
	if st.N != want {
		r.violate("replayed registry N %.0f, want %.0f", st.N, want)
	}
	if r.twin.N() != float64(r.fed) {
		r.violate("twin summary N %.0f, want %d", r.twin.N(), r.fed)
	}
	if err := r.snapshots(); err != nil {
		return fmt.Errorf("replay: snapshots: %w", err)
	}
	if err := r.persistOps(); err != nil {
		return fmt.Errorf("replay: persist: %w", err)
	}
	if err := r.measureAllocs(); err != nil {
		return fmt.Errorf("replay: allocations: %w", err)
	}
	return nil
}

// close stops the replay's registry and twin store (Close is
// idempotent, so a store persistOps already closed is fine).
func (r *replayer) close() error {
	err := r.reg.Halt()
	if r.store != nil {
		if serr := r.store.Close(); err == nil {
			err = serr
		}
	}
	return err
}
