package heavyhitters

// The window layer: sliding-window and exponentially-decayed heavy
// hitters as composable backends over the existing counter structures.
//
// windowBackend keeps a ring of E epoch sub-backends (each a full
// counter structure built by newCoreBackend). The stream is cut into
// epochs of fixed item count (WithWindow) or fixed duration
// (WithTickWindow); rotation recycles the oldest epoch in place via the
// slab-retaining Reset, so steady-state rotation performs no heap
// allocations. Every query concatenates the live epochs:
//
//	estimate(x) = Σ_j c_j(x)      bounds(x) = (Σ_j lo_j(x), Σ_j hi_j(x))
//
// Each epoch's bounds are certain against its own sub-stream, and the
// ring-covered suffix is exactly the concatenation of those
// sub-streams, so the summed bounds are certain against the covered
// suffix — the same Theorem 11 reasoning MergeSummaries uses, minus the
// compaction step (nothing is re-evicted, so no extra slack arises
// beyond each epoch's own).
//
// The k-tail guarantee arithmetic: if each epoch provides a (A, B)
// guarantee with m counters, then for every item the window error is
//
//	Σ_j |c_j − f_j| ≤ A·Σ_j res_j(k)/(m − B·k) ≤ A·res_w(k)/(m − B·k)
//
// using Σ_j F1res_j(k) ≤ F1res_w(k) (for any fixed k-set S,
// Σ_j mass_j(S) = mass_w(S) and each epoch's own top-k dominates its
// mass of S). windowBackend reports Capacity = E·m (the real counter
// budget of the ring) and the rescaled constants (A·E, B·E), which make
// ErrorBound(g, E·m, k, res) equal A·res/(m − B·k) exactly — the honest
// E-fold degradation relative to spending the same E·m counters on one
// whole-stream structure.
//
// decayBackend is the smooth alternative (WithDecay): instead of a hard
// cutoff it scales every arrival's contribution by e^(−λ·age). New
// arrivals are scaled up by e^(λ·t) and queries normalized down by
// e^(−λ·t), so updates never touch old counters; when the running
// exponent grows past a threshold every counter is rescaled once
// (Scale), keeping all values in float64 range. The Section 6.1
// guarantees are weight-linear, so they hold verbatim against the
// decayed frequency vector.
//
// Thread safety is not this layer's concern: like the core backends,
// windowBackend and decayBackend are single-threaded by contract.
// WithShards runs one instance per shard under the shard locks, and
// WithConcurrent adds the snapshot tier on top (concurrency.go) —
// under it, the read-path mutations here (tick rotation in sync, the
// reused agg/scratch buffers) only ever run during a snapshot capture,
// which holds the same locks the write path takes. Tick windows
// additionally expire out of *cached* snapshots: the tier stamps each
// snapshot with its capture time and rebuilds once per epoch
// granularity even when no writes arrive, so sync's query-driven
// rotation still happens on an idle stream.

import (
	"math"
	"time"

	"repro/internal/core"
)

// WindowState reports the rotation state of a windowed summary — see
// Summary.Window.
type WindowState struct {
	// Epochs is the configured ring size E.
	Epochs int
	// Live is the number of ring slots the window currently spans. It
	// grows to Epochs as the stream warms and stays there; on a tick
	// window it includes epochs that closed empty while the stream was
	// idle (Covered is the occupancy signal, Live the span).
	Live int
	// EpochLen is the item count per epoch of a count window (zero for
	// tick windows).
	EpochLen uint64
	// Tick is the covered duration of a tick window — the d of
	// WithTickWindow, with each epoch spanning Tick/Epochs — and zero
	// for count windows.
	Tick time.Duration
	// Covered is the stream mass currently inside the ring: the N() the
	// windowed queries are answered against.
	Covered float64
}

// windowBackend implements backend[K] as a ring of epoch sub-backends.
// Like the other unsharded backends it is single-threaded by contract;
// WithShards wraps one windowBackend per shard under the shard locks.
type windowBackend[K comparable] struct {
	ring []leafBackend[K]
	cur  int // slot receiving updates
	live int // slots holding data (1..len(ring))

	// Count-based rotation (epochLen > 0): the current epoch closes
	// after epochLen items.
	epochLen uint64
	curItems uint64

	// Tick-based rotation (tick > 0): the current epoch closes tick
	// after epochStart. Queries also advance the ring, so epochs expire
	// while the stream is idle.
	tick       time.Duration
	clock      func() time.Time
	epochStart time.Time

	// Aggregation scratch, reused across queries: agg maps an item to
	// its index in scratch while epochs are folded together. A nested
	// query during each's yield rebuilds both from scratch, so only the
	// buffer is detached (see unitBackend.each).
	agg     map[K]int
	scratch []WeightedEntry[K]
}

// newWindowBackend builds the epoch ring for one shard. Count windows
// divide the window across shards (each shard sees ~1/p of arrivals
// under the partitioner's uniform hashing); tick windows share the
// clock, so every shard covers the same time span.
func newWindowBackend[K comparable](cfg config, shard int, hash func(K) uint64, cl func(K) K) *windowBackend[K] {
	b := &windowBackend[K]{
		ring: make([]leafBackend[K], cfg.epochs),
		live: 1,
		agg:  make(map[K]int),
	}
	for i := range b.ring {
		b.ring[i] = newCoreBackend[K](cfg, shard, hash, cl)
	}
	if cfg.tick > 0 {
		b.tick = cfg.tick / time.Duration(cfg.epochs)
		if b.tick <= 0 {
			b.tick = 1
		}
		b.clock = cfg.clock
		if b.clock == nil {
			b.clock = time.Now
		}
		b.epochStart = b.clock()
		return b
	}
	window := cfg.window
	if cfg.shards > 1 {
		p := uint64(cfg.shards)
		window = (window + p - 1) / p
	}
	b.epochLen = (window + uint64(cfg.epochs) - 1) / uint64(cfg.epochs)
	if b.epochLen < 1 {
		b.epochLen = 1
	}
	return b
}

// rotate closes the current epoch and recycles the oldest slot in
// place. Reset retains slabs and map storage, so rotation allocates
// nothing at steady state.
//
//hh:noalloc
func (b *windowBackend[K]) rotate() {
	b.cur = (b.cur + 1) % len(b.ring)
	b.ring[b.cur].reset()
	if b.live < len(b.ring) {
		b.live++
	}
	b.curItems = 0
}

// advance rotates the ring as far as the stream position requires; it
// is called before every write. After advance the current epoch always
// has room for at least one more item.
//
//hh:noalloc
func (b *windowBackend[K]) advance() {
	if b.epochLen > 0 {
		if b.curItems >= b.epochLen {
			b.rotate()
		}
		return
	}
	now := b.clock()
	elapsed := now.Sub(b.epochStart)
	if elapsed < b.tick {
		return
	}
	steps := int(elapsed / b.tick)
	if steps >= len(b.ring) {
		// The whole ring has aged out; start over rather than rotating
		// len(ring) times.
		for i := range b.ring {
			b.ring[i].reset()
		}
		b.cur, b.live, b.curItems = 0, 1, 0
		b.epochStart = now
		return
	}
	for i := 0; i < steps; i++ {
		b.rotate()
	}
	b.epochStart = b.epochStart.Add(b.tick * time.Duration(steps))
}

// sync expires aged epochs before a read. Only tick windows rotate on
// reads: a count window rotates lazily before the next write, so a
// query between item epochLen and item epochLen+1 still sees the full
// ring.
//
//hh:noalloc
func (b *windowBackend[K]) sync() {
	if b.tick > 0 {
		b.advance()
	}
}

//hh:noalloc
func (b *windowBackend[K]) update(item K) {
	b.advance()
	b.ring[b.cur].update(item)
	b.curItems++
}

// updateN spreads n unit occurrences across epoch boundaries, so a
// large AddN cannot stretch one epoch beyond epochLen items.
//
//hh:noalloc
func (b *windowBackend[K]) updateN(item K, n uint64) {
	for n > 0 {
		b.advance()
		take := n
		if b.epochLen > 0 {
			if room := b.epochLen - b.curItems; take > room {
				take = room
			}
		}
		b.ring[b.cur].updateN(item, take)
		b.curItems += take
		n -= take
	}
}

// updateWeighted records one weighted arrival. A count window counts
// arrivals, not weight: the window is "the last n updates", whatever
// mass they carried.
//
//hh:noalloc
func (b *windowBackend[K]) updateWeighted(item K, w float64) {
	b.advance()
	b.ring[b.cur].updateWeighted(item, w)
	b.curItems++
}

// updateBatch splits the batch at rotation boundaries, handing each
// piece (and the matching precomputed hashes) to the owning epoch.
//
//hh:noalloc
func (b *windowBackend[K]) updateBatch(items []K, hashes []uint64) {
	for len(items) > 0 {
		b.advance()
		take := len(items)
		if b.epochLen > 0 {
			if room := b.epochLen - b.curItems; uint64(take) > room {
				take = int(room)
			}
		}
		var hs []uint64
		if hashes != nil {
			hs = hashes[:take]
		}
		b.ring[b.cur].updateBatch(items[:take], hs)
		b.curItems += uint64(take)
		items = items[take:]
		if hashes != nil {
			hashes = hashes[take:]
		}
	}
}

// updateBatchN splits a coalesced batch at rotation boundaries: each
// group's mass counts as counts[i] items toward the epoch length
// (coalescing must not stretch epochs), so the split point falls between
// groups where whole groups fit, and inside a group — splitting it via
// updateN, in place through counts — where one group alone straddles
// the boundary. Group order is preserved, so the result is identical to
// updateN(items[i], counts[i]) applied in order.
//
//hh:noalloc
func (b *windowBackend[K]) updateBatchN(items []K, counts []uint32, hashes []uint64) {
	for len(items) > 0 {
		b.advance()
		if b.epochLen == 0 {
			// Tick windows rotate on time, not item count: after advance
			// the whole remainder belongs to the current epoch.
			b.ring[b.cur].updateBatchN(items, counts, hashes)
			for _, c := range counts {
				b.curItems += uint64(c)
			}
			return
		}
		room := b.epochLen - b.curItems
		take, used := 0, uint64(0)
		for take < len(items) {
			c := uint64(counts[take])
			if used+c > room {
				break
			}
			used += c
			take++
		}
		if take > 0 {
			var hs []uint64
			if hashes != nil {
				hs = hashes[:take]
			}
			b.ring[b.cur].updateBatchN(items[:take], counts[:take], hs)
			b.curItems += used
			items = items[take:]
			counts = counts[take:]
			if hashes != nil {
				hashes = hashes[take:]
			}
			continue
		}
		// The leading group alone overflows the epoch: spend exactly the
		// remaining room on it (room < counts[0] ≤ 2^32−1, so the cast is
		// exact) and leave the rest for the next epoch.
		part := uint32(room)
		b.ring[b.cur].updateN(items[0], uint64(part))
		counts[0] -= part
		b.curItems += uint64(part)
	}
}

//hh:noalloc
func (b *windowBackend[K]) estimate(item K) float64 {
	b.sync()
	var c float64
	for _, ep := range b.ring {
		c += ep.estimate(item)
	}
	return c
}

// bounds sums the per-epoch bounds: each epoch's interval is certain
// against its sub-stream, and the covered suffix is exactly the
// concatenation of the epoch sub-streams, so the sums are certain
// against the covered suffix (an epoch that does not store the item
// contributes its own absent-item interval).
//
//hh:noalloc
func (b *windowBackend[K]) bounds(item K) (float64, float64) {
	b.sync()
	var lo, hi float64
	for _, ep := range b.ring {
		l, h := ep.bounds(item)
		lo += l
		hi += h
	}
	return lo, hi
}

// gather folds every epoch's counters into one aggregate per item,
// summing counts and error metadata, and leaves the result sorted in
// decreasing count order in b.scratch. The map and buffer are reused,
// so steady-state polling settles into allocation-free operation.
//
//hh:noalloc
func (b *windowBackend[K]) gather() {
	b.scratch = b.scratch[:0]
	clear(b.agg)
	for _, ep := range b.ring {
		ep.each(func(e WeightedEntry[K]) bool {
			if i, ok := b.agg[e.Item]; ok {
				b.scratch[i].Count += e.Count
				b.scratch[i].Err += e.Err
			} else {
				b.agg[e.Item] = len(b.scratch)
				b.scratch = append(b.scratch, e)
			}
			return true
		})
	}
	core.SortWeightedEntries(b.scratch)
}

//hh:noalloc
func (b *windowBackend[K]) appendEntries(dst []WeightedEntry[K], max int) []WeightedEntry[K] {
	if max == 0 {
		return dst
	}
	b.sync()
	b.gather()
	take := len(b.scratch)
	if max > 0 && take > max {
		take = max
	}
	return append(dst, b.scratch[:take]...)
}

//hh:noalloc
func (b *windowBackend[K]) each(yield func(WeightedEntry[K]) bool) {
	b.sync()
	b.gather()
	// Detach the buffer while user code runs so a nested query cannot
	// clobber the iteration (the nested gather rebuilds agg anyway).
	buf := b.scratch
	b.scratch = nil
	for _, e := range buf {
		if !yield(e) {
			break
		}
	}
	b.scratch = buf
}

// capacity is the ring's real counter budget: E× the per-epoch m. The
// guarantee constants are rescaled to match (see guarantee), so
// ErrorBound(g, Capacity, k, res) reproduces the per-epoch bound
// exactly.
func (b *windowBackend[K]) capacity() int {
	var c int
	for _, ep := range b.ring {
		c += ep.capacity()
	}
	return c
}

// length counts the distinct items across the ring with a map-only
// fold — no entry materialization or sorting, unlike the full gather.
func (b *windowBackend[K]) length() int {
	b.sync()
	clear(b.agg)
	n := 0
	for _, ep := range b.ring {
		ep.each(func(e WeightedEntry[K]) bool {
			if _, ok := b.agg[e.Item]; !ok {
				b.agg[e.Item] = n
				n++
			}
			return true
		})
	}
	return n
}

func (b *windowBackend[K]) total() float64 {
	b.sync()
	var t float64
	for _, ep := range b.ring {
		t += ep.total()
	}
	return t
}

// guarantee reports the window guarantee: per-epoch constants (A, B)
// become (A·E, B·E) against Capacity = E·m — sound per the Σ res_j ≤
// res_w inequality in the package comment, and an honest statement of
// the E-fold price of windowing.
func (b *windowBackend[K]) guarantee() (TailGuarantee, bool) {
	g, ok := b.ring[0].guarantee()
	if !ok {
		return TailGuarantee{}, false
	}
	e := float64(len(b.ring))
	return TailGuarantee{A: g.A * e, B: g.B * e}, true
}

func (b *windowBackend[K]) mergeable() bool { return b.ring[0].mergeable() }
func (b *windowBackend[K]) overEst() bool   { return b.ring[0].overEst() }

// slackOut is the upper slack a flat consumer (Merge, the flattened
// encode) must attach to every *stored* aggregate entry: the entry's
// Count sums only the epochs that store the item, but an epoch that
// evicted it can hide up to its own slack plus its absent floor (Δ for
// SPACESAVING state), so the certain global slack is Σ_j (slack_j +
// floor_j). The live bounds() path stays tighter because it knows
// which epochs actually store the item.
func (b *windowBackend[K]) slackOut() float64 {
	b.sync()
	var s float64
	for _, ep := range b.ring {
		s += ep.slackOut() + ep.absentExtra()
	}
	return s
}

// absentExtra is zero: slackOut already covers the worst case of an
// item absent from every epoch (the sum of the epochs' absent-item
// upper bounds), so absent items owe nothing beyond it.
func (b *windowBackend[K]) absentExtra() float64 { return 0 }

//hh:noalloc
func (b *windowBackend[K]) reset() {
	for _, ep := range b.ring {
		ep.reset()
	}
	b.cur, b.live, b.curItems = 0, 1, 0
	if b.tick > 0 {
		b.epochStart = b.clock()
	}
}

func (b *windowBackend[K]) windowState() (WindowState, bool) {
	b.sync()
	return WindowState{
		Epochs:   len(b.ring),
		Live:     b.live,
		EpochLen: b.epochLen,
		Tick:     b.tick * time.Duration(len(b.ring)),
		Covered:  b.total(),
	}, true
}

// --- exponential decay (WithDecay) ---

// decayMaxExp is the running exponent λ·t − base at which decayBackend
// renormalizes. e^256 ≈ 1.5e111 leaves ~2e196 of headroom below
// math.MaxFloat64 for the weights themselves, and renormalization cost
// is amortized over 256/λ arrivals.
const decayMaxExp = 256

// decayBackend wraps a weighted (SPACESAVINGR / FREQUENTR) backend with
// exponential decay: arrival t carries weight w·e^(λ·t − base), queries
// normalize by e^(base − λ·t), and when λ·t − base exceeds decayMaxExp
// every stored value is rescaled once so nothing overflows. All stored
// state is linear in the weights, so the rescale is exact up to float
// rounding and the Section 6.1 guarantees carry over to the decayed
// frequency vector.
type decayBackend[K comparable] struct {
	inner  *weightedBackend[K]
	lambda float64
	t      float64 // arrivals processed (the decay clock)
	base   float64 // log-scale origin: stored mass is e^(base) units
}

func newDecayBackend[K comparable](cfg config, shard int, hash func(K) uint64, cl func(K) K) *decayBackend[K] {
	lambda := cfg.decay
	if cfg.shards > 1 {
		// Each shard's decay clock ticks only on its own ~1/p of the
		// arrivals; scaling λ by p keeps the decay horizon in *global*
		// arrivals as documented — the same per-shard adjustment the
		// count window applies to n.
		lambda *= float64(cfg.shards)
	}
	return &decayBackend[K]{
		inner:  newCoreBackend[K](cfg, shard, hash, cl).(*weightedBackend[K]),
		lambda: lambda,
	}
}

// norm is the factor that converts stored (inflated) mass into decayed
// mass as of the current tick.
//
//hh:noalloc
func (b *decayBackend[K]) norm() float64 { return math.Exp(b.base - b.lambda*b.t) }

// tickWeight advances the decay clock by one arrival and returns the
// stored-scale weight for it, renormalizing the inner structure first
// when the running exponent would grow too large.
//
//hh:noalloc
func (b *decayBackend[K]) tickWeight(w float64) float64 {
	b.t++
	exp := b.lambda*b.t - b.base
	if exp > decayMaxExp {
		b.inner.scale(math.Exp(-exp))
		b.base += exp
		exp = 0
	}
	return w * math.Exp(exp)
}

//hh:noalloc
func (b *decayBackend[K]) update(item K) { b.updateWeighted(item, 1) }

//hh:noalloc
func (b *decayBackend[K]) updateN(item K, n uint64) {
	if n > 0 {
		// n simultaneous occurrences: one arrival of weight n, matching
		// the weighted backends' updateN.
		b.updateWeighted(item, float64(n))
	}
}

//hh:noalloc
func (b *decayBackend[K]) updateWeighted(item K, w float64) {
	b.inner.updateWeighted(item, b.tickWeight(w))
}

//hh:noalloc
func (b *decayBackend[K]) updateBatch(items []K, _ []uint64) {
	for _, it := range items {
		b.updateWeighted(it, 1)
	}
}

// updateBatchN exists for the backend contract but must never see
// coalesced input from the sharded fast path: the decay clock advances
// once per arrival, so a coalesced group is n separate arrivals, not one
// weighted one — newShardedBackend gates coalescing off for decayed
// compositions. This fallback replays the occurrences faithfully.
//
//hh:noalloc
func (b *decayBackend[K]) updateBatchN(items []K, counts []uint32, _ []uint64) {
	for i, it := range items {
		for j := uint32(0); j < counts[i]; j++ {
			b.updateWeighted(it, 1)
		}
	}
}

//hh:noalloc
func (b *decayBackend[K]) estimate(item K) float64 { return b.inner.estimate(item) * b.norm() }

//hh:noalloc
func (b *decayBackend[K]) bounds(item K) (float64, float64) {
	lo, hi := b.inner.bounds(item)
	n := b.norm()
	return lo * n, hi * n
}

//hh:noalloc
func (b *decayBackend[K]) appendEntries(dst []WeightedEntry[K], max int) []WeightedEntry[K] {
	start := len(dst)
	dst = b.inner.appendEntries(dst, max)
	n := b.norm()
	for i := start; i < len(dst); i++ {
		dst[i].Count *= n
		dst[i].Err *= n
	}
	return dst
}

//hh:noalloc
func (b *decayBackend[K]) each(yield func(WeightedEntry[K]) bool) {
	n := b.norm()
	b.inner.each(func(e WeightedEntry[K]) bool {
		e.Count *= n
		e.Err *= n
		return yield(e)
	})
}

func (b *decayBackend[K]) capacity() int { return b.inner.capacity() }
func (b *decayBackend[K]) length() int   { return b.inner.length() }

// total is the decayed stream mass Σ w_i·e^(−λ·(t−t_i)) — the N the
// phi·N HeavyHitters thresholds are taken against, so "heavy" means
// heavy recently.
func (b *decayBackend[K]) total() float64 { return b.inner.total() * b.norm() }

func (b *decayBackend[K]) guarantee() (TailGuarantee, bool) { return b.inner.guarantee() }
func (b *decayBackend[K]) mergeable() bool                  { return b.inner.mergeable() }
func (b *decayBackend[K]) overEst() bool                    { return b.inner.overEst() }
func (b *decayBackend[K]) slackOut() float64                { return b.inner.slackOut() * b.norm() }
func (b *decayBackend[K]) absentExtra() float64             { return b.inner.absentExtra() * b.norm() }

//hh:noalloc
func (b *decayBackend[K]) reset() {
	b.inner.reset()
	b.t, b.base = 0, 0
}

func (b *decayBackend[K]) windowState() (WindowState, bool) { return WindowState{}, false }

// scale rescales the weighted backend's stored state by f — counters,
// error metadata, slack and carried mass alike (all weight-linear).
//
//hh:noalloc
func (b *weightedBackend[K]) scale(f float64) {
	if b.ssr != nil {
		b.ssr.Scale(f)
	} else {
		b.fqr.Scale(f)
	}
	b.slack *= f
	b.absentSlack *= f
	b.extraMass *= f
	b.defCache, b.defCacheAt = 0, 0
}
