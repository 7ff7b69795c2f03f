package heavyhitters

import (
	"fmt"
	"math"
	"time"
)

// config collects the knobs New understands. It is deliberately
// non-generic so every Option reads naturally at call sites; the only
// K-dependent piece of construction (the shard/sketch key hash) is
// derived from the key type inside New.
type config struct {
	algo        Algo
	m           int     // counters (or sketch width); 0 = derive or default
	eps, phi    float64 // WithErrorBudget auto-sizing; 0 = unset
	shards      int     // 0 = unsharded (single structure, no locking)
	seed        uint64
	depth       int  // sketch depth
	weighted    bool // real-valued counters (SPACESAVINGR / FREQUENTR)
	mSet        bool
	budgetSet   bool
	weightedSet bool

	// Window layer (WithWindow / WithTickWindow / WithEpochs): the
	// summary becomes an epoch ring of counter sub-structures answering
	// queries over a sliding suffix of the stream.
	window    uint64 // count window: items covered; 0 = whole stream
	windowSet bool
	epochs    int           // ring size E; 0 = default
	tick      time.Duration // tick window: time covered; 0 = count-based
	tickSet   bool
	clock     func() time.Time
	epochsSet bool

	// Exponential decay (WithDecay): the smooth alternative to the epoch
	// ring, on the real-valued backends.
	decay    float64 // per-arrival decay rate λ; 0 = no decay
	decaySet bool

	// Concurrency tier (WithConcurrent): striped writer locks plus
	// generation-tracked read snapshots on top of the composition.
	concurrent bool

	// Pipelined ingest (WithPipeline): per-shard single-writer worker
	// goroutines fed by bounded SPSC rings, on top of WithShards.
	pipeline bool

	// Borrowed-key ingest (WithBorrowedKeys): the summary clones any
	// key it retains, so callers may pass keys whose backing memory is
	// reused after the call returns.
	borrowKeys bool
}

// windowed reports whether the configuration asks for the epoch-ring
// window layer.
func (c *config) windowed() bool { return c.window > 0 || c.tick > 0 }

// coalescible reports whether the sharded batch path may group a batch's
// duplicate keys and apply each group as one n-fold update. True exactly
// when the composition's n-fold update is bit-identical to n unit
// updates (the Section-6 equivalence): decay is out (its clock advances
// per arrival) and so is LOSSYCOUNTING (AddN deliberately keeps the
// added item's full count across the batched prune, so it can exceed
// the unit-loop state).
func (c *config) coalescible() bool {
	return c.decay == 0 && c.algo != AlgoLossyCounting
}

// Option configures a Summary under construction by New.
type Option func(*config)

// WithAlgorithm selects the backing algorithm. The default is
// AlgoSpaceSaving. See the Algo constants for the trade-offs (Table 1 of
// the paper: space, guarantee direction, deletions).
func WithAlgorithm(a Algo) Option {
	return func(c *config) { c.algo = a }
}

// WithCapacity sets m, the counter budget (for sketches: the width of
// each row). Every estimate of an HTC algorithm with m counters is then
// within F1^res(k)/(m − k) of the truth for every k < m (Theorem 2).
// Mutually exclusive with WithErrorBudget. For counter algorithms New
// panics when the encoded form could hold more than 2^24 counters —
// m × shards, times the epoch count for a sharded window — because
// Decode would reject that blob.
func WithCapacity(m int) Option {
	return func(c *config) {
		c.m = m
		c.mSet = true
	}
}

// WithErrorBudget sizes the summary from accuracy targets instead of a
// raw counter count: estimates stay within eps·F1 of the truth
// (classical F1/m sizing — on skewed streams the realized error is far
// smaller, per the paper's residual bounds), and every phi-heavy hitter
// is certain to be stored (m > 1/phi). Pass phi = 0 to size from eps
// alone. Mutually exclusive with WithCapacity.
func WithErrorBudget(eps, phi float64) Option {
	return func(c *config) {
		c.eps = eps
		c.phi = phi
		c.budgetSet = true
	}
}

// WithShards splits the summary into p independently locked shards,
// making every Summary method safe for concurrent use. Items are
// partitioned (not replicated) by a stateless hash, so each item's
// counts live wholly in one shard and per-item estimates and bounds keep
// the single-shard guarantee against the item's full stream; see the
// Summary documentation for the aggregate-query guarantee. p = 1 yields
// a single locked shard (thread safety without partitioning).
func WithShards(p int) Option {
	return func(c *config) { c.shards = p }
}

// WithConcurrent wraps the summary in the concurrency tier, making
// every Summary method safe for concurrent use with reads that never
// block writers. Writers serialize through striped locks — the
// per-shard mutexes when composed with WithShards(p), one structure
// lock otherwise — and bump a generation counter; readers serve from
// an immutable snapshot behind an atomic pointer, rebuilt lazily
// (by one reader at a time) only when the generation moved, so
// Estimate, EstimateBounds, Top, TopAppend, All, HeavyHitters, N and
// Window are lock-free against the write path. Readers may observe a
// bounded-stale snapshot: at most one in-flight rebuild old, and never
// from before the latest Reset. N is the exception that trades the
// staleness allowance for exactness — it waits for an in-flight
// rebuild (still never blocking writers), so the reported mass is
// exact as soon as writers quiesce. The tier composes with every other
// tier (core → window/decay → sharded → concurrent) and keeps the
// batch path's one-hash-per-key contract; it requires a deterministic
// counter algorithm (snapshots cannot reproduce a sketch's estimates
// for never-tracked items — use WithShards alone for thread-safe
// sketches). Compared with WithShards alone, whose aggregate queries
// lock every shard on every call, the concurrency tier trades bounded
// staleness for reads that scale independently of write traffic; a
// snapshot's upper bounds on a sharded composition widen by the other
// shards' slack (zero for SPACESAVING). See the README's
// "Concurrency" section for the full semantics.
func WithConcurrent() Option {
	return func(c *config) { c.concurrent = true }
}

// WithPipeline moves ingest onto per-shard single-writer worker
// goroutines fed by bounded SPSC rings, on top of WithShards(p):
// UpdateBatch partitions (and coalesces) a batch exactly as the locked
// sharded path does, but enqueues each shard's sub-batch onto the
// owning shard's ring and returns — the shard worker is the only
// goroutine applying counter work in the steady state, so shard state
// stays core-local and producers never stall on counter work, only on
// a full ring (bounded memory, honest backpressure). Ingest becomes
// asynchronous: a write is visible to queries once its shard worker
// has applied it, and every query method drains the rings first, so a
// single goroutine that writes then reads still observes its own
// writes (Flush exposes the same barrier directly). Composes with
// every sharded configuration, including WithConcurrent on top, whose
// snapshot capture inherits the drain barrier. Requires WithShards;
// New panics otherwise.
func WithPipeline() Option {
	return func(c *config) { c.pipeline = true }
}

// WithBorrowedKeys lets Update/UpdateBatch callers pass keys whose
// backing memory they reuse or overwrite after the call returns — the
// shape of a zero-copy decoder that aliases string keys straight into a
// network or file buffer (internal/wire parses frames this way). The
// summary copies any key at the moment it is retained (counter
// insertion, sketch candidate tracking); lookups, increments to
// already-tracked items, and rejected candidates never copy, so the
// skewed-stream hot path stays zero-alloc and only the insertion tail
// pays. String-keyed summaries route insertions through a small
// per-structure dedup cache (sized from the counter budget) so a
// recurring tail key is usually copied once, not per insertion.
//
// Valid key types: strings (any string kind) and pointer-free types
// (integers, floats, arrays/structs thereof — which need no copying and
// make the option a no-op). New panics for key types holding other
// references (slices, pointers, maps...), which cannot be cloned
// generically.
//
// Without this option, the library's usual contract applies: the
// summary aliases the keys it is handed and callers must not mutate
// their backing memory afterwards.
func WithBorrowedKeys() Option {
	return func(c *config) { c.borrowKeys = true }
}

// WithSeed fixes the seed of randomized backends (Count-Min,
// Count-Sketch) and of the key hash behind shard placement and sketch
// candidate tracking. For uint64- and string-keyed summaries the key
// hash derives entirely from the seed, so estimates and shard placement
// are reproducible across runs. Every other key type hashes through
// hash/maphash, whose seed is randomized per process: with those keys,
// sketch estimates and shard placement are deterministic within a run
// but vary across runs even under WithSeed (correctness and all bounds
// are unaffected — only which shard owns an item and which candidates a
// sketch tracks). Deterministic counter algorithms ignore the seed.
// Seed 0 is reserved to mean "unset" and is treated as WithSeed(1);
// sweeps over distinct seeds should start at 1.
func WithSeed(seed uint64) Option {
	return func(c *config) { c.seed = seed }
}

// WithDepth sets the number of rows of a sketch backend (default 4).
// Counter algorithms ignore it.
func WithDepth(d int) Option {
	return func(c *config) { c.depth = d }
}

// WithWeighted backs the summary with the real-valued update variant of
// Section 6.1 (SPACESAVINGR or FREQUENTR, Theorem 10 guarantees), so
// UpdateWeighted accepts arbitrary positive weights — byte counts,
// latencies, prices. Without it, counter backends accept only integral
// weights (applied natively). Valid for AlgoSpaceSaving and AlgoFrequent.
func WithWeighted() Option {
	return func(c *config) {
		c.weighted = true
		c.weightedSet = true
	}
}

// WithWindow makes the summary answer every query over (approximately)
// the last n items instead of the whole stream: the backend becomes a
// ring of E epoch sub-structures (E from WithEpochs, default 8) of
// ⌈n/E⌉ items each, rotated as the stream advances — the oldest epoch
// is recycled in place, so steady-state rotation allocates nothing.
// Queries concatenate the live epochs, so the covered suffix stays
// within one epoch of n: between n − ⌈n/E⌉ and E·⌈n/E⌉ items (the
// upper end exceeds n by at most E−1 when E does not divide n; N
// reports the exact covered mass, and Window the rotation state).
// Estimates, bounds and the k-tail guarantee all hold against that
// covered suffix — see Summary.Window for the guarantee arithmetic. Requires a deterministic counter
// algorithm (not the sketches). Combined with WithShards(p) each shard
// windows its own sub-stream over ⌈n/p⌉ items, so the ring covers
// approximately the last n items globally under the partitioner's
// uniform hashing. Mutually exclusive with WithTickWindow and
// WithDecay.
func WithWindow(n uint64) Option {
	return func(c *config) {
		c.window = n
		c.windowSet = true
	}
}

// WithEpochs sets the epoch count E of a windowed summary (default 8).
// More epochs track the window edge more precisely (the covered suffix
// is off by at most one epoch, ⌈n/E⌉ items or d/E time) at the price of
// E× the counter memory and an E× wider advertised tail guarantee; see
// Summary.Window. Valid only together with WithWindow or
// WithTickWindow.
func WithEpochs(e int) Option {
	return func(c *config) {
		c.epochs = e
		c.epochsSet = true
	}
}

// WithTickWindow makes the summary answer every query over the last d
// of wall-clock time: the epoch ring rotates every d/E elapsed (E from
// WithEpochs), with rotation checked on every update and every query,
// so epochs expire even while the stream is idle. clock supplies the
// current time and may be nil for time.Now; tests and replay pipelines
// inject their own. Sharded tick windows share the clock, so every
// shard covers the same time span; an injected clock must be safe for
// concurrent use when combined with WithShards or WithConcurrent (the
// shards — and, under WithConcurrent, the readers checking snapshot
// expiry — call it concurrently). Mutually exclusive with WithWindow
// and WithDecay.
func WithTickWindow(d time.Duration, clock func() time.Time) Option {
	return func(c *config) {
		c.tick = d
		c.tickSet = true
		c.clock = clock
	}
}

// WithDecay applies exponential decay with rate lambda to the summary:
// at query time, an arrival that came t arrivals ago contributes
// e^(−lambda·t) of its weight, so the summary tracks a smoothly fading
// window of roughly the last 1/lambda arrivals — the smooth alternative
// to the WithWindow epoch ring (no rotation cliffs, but no hard
// cutoff). Implemented by scaling arrivals up rather than counters
// down, with periodic renormalization, so updates stay O(1) and
// allocation-free. Implies WithWeighted (decayed counts are real-
// valued); valid for AlgoSpaceSaving and AlgoFrequent, whose Section
// 6.1 guarantees are weight-linear and therefore hold verbatim against
// the decayed frequency vector. Combined with WithShards(p), each
// shard's internal rate is scaled by p so the horizon stays ~1/lambda
// global arrivals under the partitioner's uniform hashing (a shard's
// decay clock ticks only on its own sub-stream). Mutually exclusive
// with WithWindow and WithTickWindow.
func WithDecay(lambda float64) Option {
	return func(c *config) {
		c.decay = lambda
		c.decaySet = true
		c.weighted = true
	}
}

// defaultCapacity is the counter budget used when neither WithCapacity
// nor WithErrorBudget is given: enough for 0.1%-of-stream accuracy.
const defaultCapacity = 1024

// defaultEpochs is the epoch-ring size used when WithWindow or
// WithTickWindow is given without WithEpochs.
const defaultEpochs = 8

// resolve validates the option combination and fills derived fields,
// returning a descriptive error for New to panic with.
func (c *config) resolve() error {
	if c.mSet && c.budgetSet {
		return fmt.Errorf("heavyhitters: WithCapacity and WithErrorBudget are mutually exclusive")
	}
	if c.mSet && c.m < 1 {
		return fmt.Errorf("heavyhitters: capacity must be >= 1, got %d", c.m)
	}
	if c.budgetSet {
		if c.eps <= 0 || c.eps > 1 {
			return fmt.Errorf("heavyhitters: error budget eps must be in (0, 1], got %v", c.eps)
		}
		if c.phi < 0 || c.phi > 1 {
			return fmt.Errorf("heavyhitters: error budget phi must be in [0, 1], got %v", c.phi)
		}
		m := int(math.Ceil(1 / c.eps))
		if c.phi > 0 {
			if hh := CountersForHeavyHitters(c.phi); hh > m {
				m = hh
			}
		}
		if m < 1 {
			m = 1
		}
		c.m = m
	}
	if c.m == 0 {
		c.m = defaultCapacity
	}
	if c.shards < 0 {
		return fmt.Errorf("heavyhitters: shard count must be >= 0, got %d", c.shards)
	}
	if c.depth == 0 {
		c.depth = 4
	}
	if c.depth < 1 {
		return fmt.Errorf("heavyhitters: sketch depth must be >= 1, got %d", c.depth)
	}
	if c.seed == 0 {
		c.seed = 1
	}
	if c.weightedSet {
		switch c.algo {
		case AlgoSpaceSaving, AlgoFrequent:
		default:
			return fmt.Errorf("heavyhitters: WithWeighted requires AlgoSpaceSaving or AlgoFrequent, got %v", c.algo)
		}
	}
	if c.windowSet && c.tickSet {
		return fmt.Errorf("heavyhitters: WithWindow and WithTickWindow are mutually exclusive")
	}
	if c.windowSet && c.window < 1 {
		return fmt.Errorf("heavyhitters: window length must be >= 1, got %d", c.window)
	}
	if c.tickSet && c.tick <= 0 {
		return fmt.Errorf("heavyhitters: tick window duration must be positive, got %v", c.tick)
	}
	if c.epochsSet {
		if !c.windowed() {
			return fmt.Errorf("heavyhitters: WithEpochs requires WithWindow or WithTickWindow")
		}
		if c.epochs < 1 {
			return fmt.Errorf("heavyhitters: epoch count must be >= 1, got %d", c.epochs)
		}
	}
	if c.windowed() {
		if !c.algo.deterministic() {
			return fmt.Errorf("heavyhitters: windowed summaries require a deterministic counter algorithm, got %v", c.algo)
		}
		if c.epochs == 0 {
			c.epochs = defaultEpochs
		}
		if c.window > 0 && uint64(c.epochs) > c.window {
			// More epochs than items would leave most of the ring
			// permanently empty; clamp so every epoch holds >= 1 item.
			c.epochs = int(c.window)
		}
	}
	if c.algo.deterministic() {
		if c.encodedCapacity() > maxEncodedCapacity {
			return fmt.Errorf("heavyhitters: capacity %d, shards %d, epochs %d: the encoded summary could exceed 2^24 counters, the most Decode accepts", c.m, c.shards, c.epochs)
		}
	}
	if c.pipeline && c.shards < 1 {
		return fmt.Errorf("heavyhitters: WithPipeline requires WithShards")
	}
	if c.concurrent && !c.algo.deterministic() {
		return fmt.Errorf("heavyhitters: WithConcurrent requires a deterministic counter algorithm, got %v (use WithShards alone for thread-safe sketches)", c.algo)
	}
	if c.decaySet {
		if math.IsNaN(c.decay) || math.IsInf(c.decay, 0) || c.decay <= 0 {
			return fmt.Errorf("heavyhitters: decay rate must be positive and finite, got %v", c.decay)
		}
		if c.windowed() {
			return fmt.Errorf("heavyhitters: WithDecay and WithWindow/WithTickWindow are mutually exclusive")
		}
		switch c.algo {
		case AlgoSpaceSaving, AlgoFrequent:
		default:
			return fmt.Errorf("heavyhitters: WithDecay requires AlgoSpaceSaving or AlgoFrequent, got %v", c.algo)
		}
	}
	return nil
}

// encodedCapacity bounds the counter capacity Encode can write for the
// resolved composition: every shard's counters travel in one flat
// frame, and a sharded window flattens each shard's whole epoch ring
// (an unsharded window frames its epochs one by one, m counters each).
// Computed in float64 so absurd option values cannot overflow.
func (c *config) encodedCapacity() float64 {
	enc := float64(c.m) * float64(max(c.shards, 1))
	if c.windowed() && c.shards > 0 {
		enc *= float64(c.epochs)
	}
	return enc
}

// DurabilitySpec is the JSON-portable durability configuration: the
// config-file stanza that arms crash recovery on a serving deployment
// (hhserverd's registry config embeds one under "durability"). It is
// declarative and host-independent, like Spec: the daemon resolves it
// into concrete intervals and byte budgets with Resolve.
//
// The on-disk formats it governs — the snapshot manifest, the CURRENT
// pointer, and the write-ahead-log segments — are specified normatively
// in docs/DURABILITY.md; internal/persist is the reference
// implementation.
type DurabilitySpec struct {
	// Dir is the data directory holding snapshots and the WAL. It is
	// created if missing. Required: a durability stanza without a
	// directory is a configuration error.
	Dir string `json:"dir"`
	// SnapshotInterval is the cadence of periodic atomic snapshots (Go
	// duration syntax, e.g. "30s"); empty means the 1m default. Shorter
	// intervals shrink WAL replay time after a crash at the cost of
	// more snapshot I/O; see docs/OPERATIONS.md for the tradeoff.
	SnapshotInterval string `json:"snapshot_interval,omitempty"`
	// Fsync selects when appended WAL records are forced to stable
	// storage: "always" (every batch, before it is applied — zero loss
	// window), "interval" (a background ticker, the default — loss
	// window bounded by FsyncInterval), or "rotate" (only on segment
	// rotation and snapshots — largest loss window, least I/O).
	Fsync string `json:"fsync,omitempty"`
	// FsyncInterval is the ticker period for Fsync "interval"; empty
	// means the 100ms default.
	FsyncInterval string `json:"fsync_interval,omitempty"`
	// SegmentBytes rotates the WAL to a fresh segment file once the
	// current one exceeds this size; 0 means the 64 MiB default.
	SegmentBytes int64 `json:"segment_bytes,omitempty"`
}

// Fsync mode names accepted by DurabilitySpec.Fsync.
const (
	FsyncAlways   = "always"
	FsyncInterval = "interval"
	FsyncRotate   = "rotate"
)

// Durability defaults applied by DurabilitySpec.Resolve.
const (
	DefaultSnapshotInterval = time.Minute
	DefaultFsyncInterval    = 100 * time.Millisecond
	DefaultSegmentBytes     = 64 << 20
)

// ResolvedDurability is a DurabilitySpec with defaults applied and
// durations parsed — the form the registry hands to internal/persist.
type ResolvedDurability struct {
	Dir              string
	SnapshotInterval time.Duration
	Fsync            string
	FsyncInterval    time.Duration
	SegmentBytes     int64
}

// Resolve validates the spec and applies defaults. Errors name the
// offending field so a daemon can reject a bad stanza at boot.
func (d DurabilitySpec) Resolve() (ResolvedDurability, error) {
	r := ResolvedDurability{
		Dir:              d.Dir,
		SnapshotInterval: DefaultSnapshotInterval,
		Fsync:            FsyncInterval,
		FsyncInterval:    DefaultFsyncInterval,
		SegmentBytes:     DefaultSegmentBytes,
	}
	if r.Dir == "" {
		return r, fmt.Errorf("heavyhitters: durability: dir is required")
	}
	if d.SnapshotInterval != "" {
		v, err := time.ParseDuration(d.SnapshotInterval)
		if err != nil {
			return r, fmt.Errorf("heavyhitters: durability: snapshot_interval: %v", err)
		}
		if v <= 0 {
			return r, fmt.Errorf("heavyhitters: durability: snapshot_interval must be positive, got %v", v)
		}
		r.SnapshotInterval = v
	}
	if d.Fsync != "" {
		switch d.Fsync {
		case FsyncAlways, FsyncInterval, FsyncRotate:
			r.Fsync = d.Fsync
		default:
			return r, fmt.Errorf("heavyhitters: durability: fsync must be %q, %q or %q, got %q",
				FsyncAlways, FsyncInterval, FsyncRotate, d.Fsync)
		}
	}
	if d.FsyncInterval != "" {
		v, err := time.ParseDuration(d.FsyncInterval)
		if err != nil {
			return r, fmt.Errorf("heavyhitters: durability: fsync_interval: %v", err)
		}
		if v <= 0 {
			return r, fmt.Errorf("heavyhitters: durability: fsync_interval must be positive, got %v", v)
		}
		r.FsyncInterval = v
	}
	if d.SegmentBytes < 0 {
		return r, fmt.Errorf("heavyhitters: durability: segment_bytes must be >= 0, got %d", d.SegmentBytes)
	}
	if d.SegmentBytes > 0 {
		r.SegmentBytes = d.SegmentBytes
	}
	return r, nil
}
