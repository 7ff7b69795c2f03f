package heavyhitters

// The pipeline tier (WithPipeline): single-writer shard ownership as a
// composable backend layer between the sharded tier and WithConcurrent.
//
// The locked sharded tier pays two synchronization costs per batch: the
// producing goroutine round-trips every shard's mutex, and the counter
// work itself runs on the producer's core, bouncing shard state between
// whichever cores happen to ingest. The pipeline tier moves the counter
// work to one dedicated worker goroutine per shard, fed by a bounded
// single-producer/single-consumer ring: producers partition (and
// coalesce — the tier reuses the sharded tier's scratch and dedup
// table) exactly as before, but instead of applying sub-batches under
// the shard locks they copy each sub-batch into a ring slot and move
// on. The shard worker is then the only goroutine that touches its
// structure in the steady state, so shard state stays core-local and
// producers never stall on counter work — they stall only on a full
// ring (bounded memory, honest backpressure).
//
// Workers still take the shard mutex around each dequeued job. In the
// steady state that lock is uncontended (one acquirer), so it costs a
// few nanoseconds, and keeping it preserves every existing contract:
// point reads (estimate/bounds) lock the owning shard as before, the
// concurrency tier's capture walks shards under the same locks, and
// hhlint's guardedby contract on shardSlot.be remains machine-checked.
//
// Reads barrier on the rings: every query method drains the rings
// first (Flush), so a query observes every update enqueued before it —
// the same sequential semantics the locked tiers give, at the price of
// waiting out the in-flight queue depth. Composed under
// WithConcurrent, the barrier runs inside the tier's single-flight
// snapshot capture (capture calls this tier's appendEntries and
// friends), so lock-free readers inherit it without a new code path.
//
// SPSC discipline: each ring has exactly one consumer (its worker).
// Producers serialize on the ring's mutex, so the ring is SPSC in
// effect; head and tail are atomics, and the usual Dekker-style
// park/wake protocol (parked flag, recheck, buffered wake channel)
// keeps the worker from sleeping through a publish. Workers hold no
// references to the tier itself, so an abandoned summary's tier
// becomes unreachable, its runtime.AddCleanup fires, and the workers
// exit — Close is not part of the Summary contract.

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"
)

// pipeRingDepth is the per-shard ring capacity in jobs. Deep enough to
// ride out scheduling hiccups at batch granularity (a full ring holds
// pipeRingDepth batches' worth of sub-batches per shard), shallow
// enough that a flush barrier waits out at most a few milliseconds of
// queued work; OPERATIONS.md discusses the latency/throughput trade.
const pipeRingDepth = 64

// Job kinds. Each slot replays exactly one backend write verb, so the
// worker-applied sequence is the same sequence the locked tier would
// have applied synchronously — kind fidelity is what keeps window
// item-accounting and decay clocks exact through the pipeline.
const (
	jobBatch    = uint8(iota) // updateBatch(keys, hashes)
	jobBatchN                 // updateBatchN(keys, counts, hashes)
	jobN                      // updateN(keys[0], n)
	jobWeighted               // updateWeighted(keys[0], w)
)

// pipeJob is one ring slot: a copied sub-batch (slot-owned backing
// arrays, reused in place once the worker has consumed the slot) plus
// the verb to replay it with. buf owns the key bytes of borrowed
// string keys — the producer deep-copies them at enqueue, because the
// caller is free to recycle its buffers the moment UpdateBatch
// returns, long before the worker applies the job.
type pipeJob[K comparable] struct {
	kind   uint8
	n      uint64
	w      float64
	keys   []K
	counts []uint32
	hashes []uint64
	buf    []byte
}

// shardRing is the bounded SPSC ring feeding one shard worker.
type shardRing[K comparable] struct {
	// mu serializes producers (making the ring single-producer in
	// effect) and anchors cond for backpressure and flush barriers.
	mu   sync.Mutex
	cond *sync.Cond
	// waiters counts goroutines blocked in cond.Wait (producers on a
	// full ring, flushers on a drain watermark). The worker broadcasts
	// after consuming a slot only when it is nonzero, keeping the
	// uncontended steady state free of lock traffic.
	waiters atomic.Int32

	// head is the consumed-job count (written only by the worker); tail
	// is the published-job count (written only under mu). Padding keeps
	// the two counters off one cache line — the producer dirties tail
	// while the worker dirties head.
	head atomic.Uint64
	_    [56]byte
	tail atomic.Uint64

	// parked/wake implement the worker's sleep protocol: the worker
	// sets parked and rechecks tail before blocking on wake; a producer
	// that observes parked clears it and sends one token. Sequential
	// consistency of the atomics rules out the lost-wakeup interleaving.
	parked atomic.Bool
	wake   chan struct{}

	slots []pipeJob[K]
	mask  uint64
}

// pipelineTier implements backend[K] by queueing every write verb onto
// the owning shard's ring and barriering every read on ring drain.
type pipelineTier[K comparable] struct {
	inner *shardedBackend[K]
	rings []shardRing[K]
	// copyKeys: K is string-kind and the summary ingests borrowed keys,
	// so enqueue must deep-copy key bytes into the slot (see pipeJob.buf).
	copyKeys bool
	// clearKeys: K carries pointers, so consumed slots are cleared
	// before reuse rather than left pinning the previous batch's keys.
	clearKeys bool
	stop      *atomic.Bool
}

// pipeShutdown carries what the AddCleanup hook needs to stop the
// workers — deliberately not the tier itself, which must stay
// collectible for the cleanup to ever fire.
type pipeShutdown[K comparable] struct {
	stop  *atomic.Bool
	rings []shardRing[K]
}

func newPipelineTier[K comparable](cfg config, inner *shardedBackend[K]) *pipelineTier[K] {
	var zero K
	kt := reflect.TypeOf(zero)
	t := &pipelineTier[K]{
		inner:     inner,
		rings:     make([]shardRing[K], len(inner.slots)),
		copyKeys:  cfg.borrowKeys && kt.Kind() == reflect.String,
		clearKeys: !pointerFree(kt),
		stop:      new(atomic.Bool),
	}
	for i := range t.rings {
		r := &t.rings[i]
		r.cond = sync.NewCond(&r.mu)
		r.wake = make(chan struct{}, 1)
		r.slots = make([]pipeJob[K], pipeRingDepth)
		r.mask = pipeRingDepth - 1
		go pipelineWorker(r, &inner.slots[i], t.stop)
	}
	runtime.AddCleanup(t, stopPipeline[K], pipeShutdown[K]{stop: t.stop, rings: t.rings})
	return t
}

// stopPipeline runs when the tier is collected: closing wake makes
// every parked worker's receive return immediately, and the stop flag
// sends it to return on the next empty-ring check.
func stopPipeline[K comparable](s pipeShutdown[K]) {
	s.stop.Store(true)
	for i := range s.rings {
		close(s.rings[i].wake)
	}
}

// pipelineWorker drains one ring, applying each job to the shard under
// its mutex — uncontended in the steady state, but preserving the
// locking contract every read path and the concurrency tier rely on.
func pipelineWorker[K comparable](r *shardRing[K], sl *shardSlot[K], stop *atomic.Bool) {
	for {
		h := r.head.Load()
		for r.tail.Load() == h {
			r.parked.Store(true)
			if r.tail.Load() != h {
				r.parked.Store(false)
				break
			}
			if stop.Load() {
				return
			}
			<-r.wake
		}
		job := &r.slots[h&r.mask]
		sl.mu.Lock()
		switch job.kind {
		case jobBatch:
			sl.be.updateBatch(job.keys, job.hashes)
		case jobBatchN:
			sl.be.updateBatchN(job.keys, job.counts, job.hashes)
		case jobN:
			sl.be.updateN(job.keys[0], job.n)
		case jobWeighted:
			sl.be.updateWeighted(job.keys[0], job.w)
		}
		sl.mu.Unlock()
		// Publish consumption only after the job is fully applied: a
		// flusher that observes head >= its watermark must be able to
		// read the applied state.
		r.head.Store(h + 1)
		if r.waiters.Load() != 0 {
			r.mu.Lock()
			r.cond.Broadcast()
			r.mu.Unlock()
		}
	}
}

// asPipeStr / pipeStrAsK reinterpret string-kind keys without boxing —
// the same representation-preserving view change borrow.go uses.
//
//hh:noalloc
func asPipeStr[K comparable](k K) string { return *(*string)(unsafe.Pointer(&k)) }

//hh:noalloc
func pipeStrAsK[K comparable](s string) K { return *(*K)(unsafe.Pointer(&s)) }

// enqueue copies one job into the owning shard's ring, blocking while
// the ring is full (bounded-queue backpressure). The slot's backing
// arrays are reused in place, so the steady state allocates nothing;
// they grow to the high-water sub-batch size once.
//
//hh:noalloc
func (t *pipelineTier[K]) enqueue(shard int, kind uint8, keys []K, counts []uint32, hashes []uint64, n uint64, w float64) {
	r := &t.rings[shard]
	r.mu.Lock()
	// Re-read tail after every wait: cond.Wait releases mu, so another
	// producer may have published more jobs while this one slept — a
	// tail value captured before the wait would overwrite a live slot
	// and rewind the ring.
	if r.tail.Load()-r.head.Load() >= uint64(len(r.slots)) {
		r.waiters.Add(1)
		for r.tail.Load()-r.head.Load() >= uint64(len(r.slots)) {
			r.cond.Wait()
		}
		r.waiters.Add(-1)
	}
	tl := r.tail.Load()
	j := &r.slots[tl&r.mask]
	j.kind, j.n, j.w = kind, n, w
	if t.clearKeys {
		// Drop the consumed job's key references (including any beyond
		// the new length) before reusing the arrays, so a parked slot
		// cannot pin a previous batch's keys in memory.
		clear(j.keys[:cap(j.keys)])
	}
	j.keys = append(j.keys[:0], keys...) //hh:allocok slot arrays grow to the high-water sub-batch size, then are reused
	j.counts = append(j.counts[:0], counts...)
	j.hashes = append(j.hashes[:0], hashes...)
	if t.copyKeys {
		t.internKeys(j)
	}
	r.tail.Store(tl + 1)
	if r.parked.Load() {
		r.parked.Store(false)
		select {
		case r.wake <- struct{}{}:
		default:
		}
	}
	r.mu.Unlock()
}

// internKeys deep-copies borrowed string keys into the slot-owned byte
// buffer: one length pass, one grow, one copy pass, then unsafe views
// into buf — no per-key allocation.
//
//hh:noalloc
func (t *pipelineTier[K]) internKeys(j *pipeJob[K]) {
	total := 0
	for _, k := range j.keys {
		total += len(asPipeStr(k))
	}
	if cap(j.buf) < total {
		j.buf = make([]byte, 0, total) //hh:allocok slot buffer grows to the high-water byte size, then is reused
	}
	b := j.buf[:0]
	for i, k := range j.keys {
		s := asPipeStr(k)
		if len(s) == 0 {
			continue
		}
		off := len(b)
		b = append(b, s...)
		j.keys[i] = pipeStrAsK[K](unsafe.String(&b[off], len(s)))
	}
	j.buf = b
}

// flush drains every ring up to its enqueue watermark at the time of
// the call: on return, every job enqueued before flush began has been
// applied. Jobs enqueued concurrently with the flush may or may not be
// included — the same guarantee a lock barrier gives.
//
//hh:noalloc
func (t *pipelineTier[K]) flush() {
	for i := range t.rings {
		r := &t.rings[i]
		r.mu.Lock()
		w := r.tail.Load()
		if r.head.Load() < w {
			r.waiters.Add(1)
			for r.head.Load() < w {
				r.cond.Wait()
			}
			r.waiters.Add(-1)
		}
		r.mu.Unlock()
	}
}

// --- write path: every verb becomes a ring job for the owning shard ---

//hh:noalloc
func (t *pipelineTier[K]) update(item K) { t.updateN(item, 1) }

//hh:noalloc
func (t *pipelineTier[K]) updateN(item K, n uint64) {
	b := t.inner
	shard := int(b.hash(item) % uint64(len(b.slots)))
	// Stack-scoped one-key batch: enqueue copies it into the slot before
	// returning, so the slice never escapes the call.
	one := [1]K{item}
	t.enqueue(shard, jobN, one[:], nil, nil, n, 0)
}

//hh:noalloc
func (t *pipelineTier[K]) updateWeighted(item K, w float64) {
	b := t.inner
	shard := int(b.hash(item) % uint64(len(b.slots)))
	one := [1]K{item}
	t.enqueue(shard, jobWeighted, one[:], nil, nil, 0, w)
}

// updateBatch partitions (and, when the composition allows, coalesces)
// exactly as the locked sharded tier does — same scratch pool, same
// dedup table, same one-hash-per-key contract — then hands each shard's
// sub-batch to its ring instead of applying it under the shard lock.
//
//hh:noalloc
func (t *pipelineTier[K]) updateBatch(items []K, _ []uint64) {
	if len(items) == 0 {
		return
	}
	b := t.inner
	p := uint64(len(b.slots))
	sc := b.pool.Get().(*batchScratch[K])
	for i := range sc.keys {
		sc.keys[i] = sc.keys[i][:0]
		sc.hashes[i] = sc.hashes[i][:0]
		sc.counts[i] = sc.counts[i][:0]
	}
	if b.coalesce {
		b.coalesceInto(sc, items)
		for i := range sc.keys {
			if len(sc.keys[i]) == 0 {
				continue
			}
			t.enqueue(i, jobBatchN, sc.keys[i], sc.counts[i], sc.hashes[i], 0, 0)
		}
	} else {
		for _, it := range items {
			h := b.hash(it)
			i := h % p
			sc.keys[i] = append(sc.keys[i], it)
			sc.hashes[i] = append(sc.hashes[i], h)
		}
		for i := range sc.keys {
			if len(sc.keys[i]) == 0 {
				continue
			}
			t.enqueue(i, jobBatch, sc.keys[i], nil, sc.hashes[i], 0, 0)
		}
	}
	for i := range sc.keys {
		// Drop key references before pooling (see the sharded tier).
		clear(sc.keys[i])
	}
	b.pool.Put(sc)
}

//hh:noalloc
func (t *pipelineTier[K]) reset() {
	t.flush()
	t.inner.reset()
}

// --- read path: barrier on the rings, then the sharded semantics ---

//hh:noalloc
func (t *pipelineTier[K]) estimate(item K) float64 {
	t.flush()
	return t.inner.estimate(item)
}

//hh:noalloc
func (t *pipelineTier[K]) bounds(item K) (float64, float64) {
	t.flush()
	return t.inner.bounds(item)
}

//hh:noalloc
func (t *pipelineTier[K]) appendEntries(dst []WeightedEntry[K], max int) []WeightedEntry[K] {
	t.flush()
	return t.inner.appendEntries(dst, max)
}

//hh:noalloc
func (t *pipelineTier[K]) each(yield func(WeightedEntry[K]) bool) {
	t.flush()
	t.inner.each(yield)
}

func (t *pipelineTier[K]) length() int {
	t.flush()
	return t.inner.length()
}

func (t *pipelineTier[K]) total() float64 {
	t.flush()
	return t.inner.total()
}

func (t *pipelineTier[K]) slackOut() float64 {
	t.flush()
	return t.inner.slackOut()
}

func (t *pipelineTier[K]) absentExtra() float64 {
	t.flush()
	return t.inner.absentExtra()
}

func (t *pipelineTier[K]) windowState() (WindowState, bool) {
	t.flush()
	return t.inner.windowState()
}

// Static configuration: construction-time constant, no barrier needed.
func (t *pipelineTier[K]) capacity() int                    { return t.inner.capacity() }
func (t *pipelineTier[K]) guarantee() (TailGuarantee, bool) { return t.inner.guarantee() }
func (t *pipelineTier[K]) mergeable() bool                  { return t.inner.mergeable() }
func (t *pipelineTier[K]) overEst() bool                    { return t.inner.overEst() }
