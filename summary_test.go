package heavyhitters_test

// Tests of the unified New/Option/Summary surface: every algorithm
// choice crossed with unit, weighted and batch updates; merge round
// trips; the v2 codec; and an invariants pass asserting the k-tail
// bound on Zipf input.

import (
	"bytes"
	"math"
	"strconv"
	"sync"
	"testing"

	hh "repro"
	"repro/internal/exact"
	"repro/internal/stream"
)

var allAlgos = []hh.Algo{
	hh.AlgoSpaceSaving, hh.AlgoFrequent, hh.AlgoLossyCounting,
	hh.AlgoCountMin, hh.AlgoCountSketch,
}

// counterAlgos are the deterministic counter algorithms (mergeable,
// encodable).
var counterAlgos = []hh.Algo{hh.AlgoSpaceSaving, hh.AlgoFrequent, hh.AlgoLossyCounting}

func TestNewEveryAlgorithmUnitUpdates(t *testing.T) {
	for _, algo := range allAlgos {
		t.Run(algo.String(), func(t *testing.T) {
			s := hh.New[uint64](hh.WithAlgorithm(algo), hh.WithCapacity(64))
			if s.Algorithm() != algo {
				t.Fatalf("Algorithm() = %v", s.Algorithm())
			}
			for i := 0; i < 30; i++ {
				s.Update(7)
			}
			s.Update(9)
			if got := s.Estimate(7); got < 30 && algo != hh.AlgoFrequent {
				t.Errorf("Estimate(7) = %v, want >= 30", got)
			}
			if s.N() != 31 {
				t.Errorf("N = %v, want 31", s.N())
			}
			top := s.Top(1)
			if len(top) != 1 || top[0].Item != 7 {
				t.Errorf("Top(1) = %v, want item 7", top)
			}
			lo, hi := s.EstimateBounds(7)
			if lo > 30 || hi < 30 {
				t.Errorf("bounds [%v, %v] exclude the true count 30", lo, hi)
			}
			s.Reset()
			if s.N() != 0 || s.Len() != 0 {
				t.Error("Reset did not clear state")
			}
			s.Update(1)
			if s.Estimate(1) != 1 {
				t.Error("unusable after Reset")
			}
		})
	}
}

func TestNewEveryAlgorithmIntegralWeights(t *testing.T) {
	// UpdateWeighted with integral weights must land the full mass on
	// every backend, including the native SPACESAVING AddN path.
	for _, algo := range allAlgos {
		t.Run(algo.String(), func(t *testing.T) {
			s := hh.New[uint64](hh.WithAlgorithm(algo), hh.WithCapacity(64))
			s.UpdateWeighted(3, 1000)
			s.UpdateWeighted(3, 24)
			s.UpdateWeighted(5, 1)
			if got := s.Estimate(3); algo != hh.AlgoFrequent && got < 1024 {
				t.Errorf("Estimate(3) = %v, want >= 1024", got)
			}
			if got := s.N(); got != 1025 {
				t.Errorf("N = %v, want 1025", got)
			}
		})
	}
}

func TestNewEveryAlgorithmBatchUpdates(t *testing.T) {
	items := stream.Zipf(100, 1.2, 5000, stream.OrderRandom, 17)
	for _, algo := range allAlgos {
		for _, shards := range []int{0, 4} {
			name := algo.String()
			if shards > 0 {
				name += "-sharded"
			}
			t.Run(name, func(t *testing.T) {
				opts := []hh.Option{hh.WithAlgorithm(algo), hh.WithCapacity(64)}
				if shards > 0 {
					opts = append(opts, hh.WithShards(shards))
				}
				s := hh.New[uint64](opts...)
				s.UpdateBatch(items)
				if got := s.N(); got != float64(len(items)) {
					t.Fatalf("N = %v, want %d", got, len(items))
				}
				if len(s.Top(5)) == 0 {
					t.Fatal("empty Top after batch")
				}
			})
		}
	}
}

func TestBatchMatchesSequential(t *testing.T) {
	// The deterministic backends must reach the identical counter state
	// whether a stream arrives item-by-item or in batches — sharded
	// included (same seed => same partition). The sharded batch path of
	// the coalescing algorithms (SPACESAVING, FREQUENT) groups duplicates
	// inside each batch, so its per-item reference is the batch's
	// first-occurrence-grouped order (see coalesceBatch); LOSSYCOUNTING
	// and the unsharded batch paths preserve arrival order exactly.
	items := stream.Zipf(200, 1.1, 20000, stream.OrderRandom, 5)
	for _, algo := range counterAlgos {
		for _, shards := range []int{0, 4} {
			opts := []hh.Option{hh.WithAlgorithm(algo), hh.WithCapacity(32), hh.WithSeed(9)}
			if shards > 0 {
				opts = append(opts, hh.WithShards(shards))
			}
			seq := hh.New[uint64](opts...)
			bat := hh.New[uint64](opts...)
			for lo := 0; lo < len(items); lo += 1000 {
				hi := min(lo+1000, len(items))
				ref := items[lo:hi]
				if shards > 0 && algo != hh.AlgoLossyCounting {
					ref = coalesceBatch(items[lo:hi])
				}
				for _, x := range ref {
					seq.Update(x)
				}
				bat.UpdateBatch(items[lo:hi])
			}
			se, be := seq.Top(seq.Len()), bat.Top(bat.Len())
			if len(se) != len(be) {
				t.Fatalf("%v shards=%d: %d vs %d entries", algo, shards, len(se), len(be))
			}
			sm := map[uint64]float64{}
			for _, e := range se {
				sm[e.Item] = e.Count
			}
			for _, e := range be {
				if sm[e.Item] != e.Count {
					t.Errorf("%v shards=%d: item %d: batch %v vs sequential %v",
						algo, shards, e.Item, e.Count, sm[e.Item])
				}
			}
		}
	}
}

// coalesceBatch replays one batch in its first-occurrence-grouped order:
// all occurrences of a key contiguous at the position of the key's first
// appearance. This is the per-item reference stream of coalesced batch
// ingest — UpdateBatch on a sharded summary groups each batch's
// duplicates and applies every group as one AddN, which by the
// Section-6 equivalence matches unit updates in exactly this order.
func coalesceBatch[K comparable](batch []K) []K {
	idx := map[K]int{}
	keys := make([]K, 0, len(batch))
	counts := make([]int, 0, len(batch))
	for _, it := range batch {
		if i, ok := idx[it]; ok {
			counts[i]++
			continue
		}
		idx[it] = len(keys)
		keys = append(keys, it)
		counts = append(counts, 1)
	}
	out := make([]K, 0, len(batch))
	for i, k := range keys {
		for j := 0; j < counts[i]; j++ {
			out = append(out, k)
		}
	}
	return out
}

func TestFrequentAddNMatchesUnitLoop(t *testing.T) {
	// Integer-weighted FREQUENT updates must reach the exact state unit
	// repetition reaches, across stored/insert/decrement paths.
	type op struct {
		item uint64
		n    uint64
	}
	ops := []op{{1, 3}, {2, 1}, {3, 7}, {4, 2}, {5, 1}, {1, 4}, {6, 9}, {7, 1},
		{2, 5}, {8, 3}, {1, 1}, {9, 6}, {3, 2}, {10, 4}, {11, 1}, {6, 1}}
	for _, m := range []int{1, 2, 4, 8} {
		batch := hh.NewFrequent[uint64](m)
		unit := hh.NewFrequent[uint64](m)
		for _, o := range ops {
			batch.AddN(o.item, o.n)
			for i := uint64(0); i < o.n; i++ {
				unit.Update(o.item)
			}
		}
		if batch.N() != unit.N() || batch.Decrements() != unit.Decrements() {
			t.Fatalf("m=%d: N/d %d/%d vs %d/%d", m, batch.N(), batch.Decrements(), unit.N(), unit.Decrements())
		}
		for i := uint64(0); i <= 11; i++ {
			if batch.Estimate(i) != unit.Estimate(i) {
				t.Errorf("m=%d item %d: AddN state %d, unit state %d", m, i, batch.Estimate(i), unit.Estimate(i))
			}
		}
	}
}

func TestSpaceSavingAddNMassConservation(t *testing.T) {
	ss := hh.NewSpaceSaving[uint64](4)
	for i := uint64(0); i < 20; i++ {
		ss.AddN(i%6, i+1)
	}
	var sum uint64
	for _, e := range ss.Entries() {
		sum += e.Count
	}
	if sum != ss.N() {
		t.Errorf("counters sum to %d, N = %d", sum, ss.N())
	}
}

func TestWeightedBackendRealValues(t *testing.T) {
	for _, algo := range []hh.Algo{hh.AlgoSpaceSaving, hh.AlgoFrequent} {
		s := hh.New[string](hh.WithAlgorithm(algo), hh.WithWeighted(), hh.WithCapacity(8))
		s.UpdateWeighted("a", 2.5)
		s.UpdateWeighted("b", 1.25)
		s.UpdateWeighted("a", 0.25)
		if got := s.Estimate("a"); got != 2.75 {
			t.Errorf("%v: Estimate(a) = %v, want 2.75", algo, got)
		}
		if got := s.N(); got != 4.0 {
			t.Errorf("%v: N = %v, want 4", algo, got)
		}
		// Unit updates flow through the weighted path too.
		s.Update("c")
		if got := s.Estimate("c"); got != 1 {
			t.Errorf("%v: Estimate(c) = %v, want 1", algo, got)
		}
	}
}

func TestUnitBackendRejectsFractionalWeights(t *testing.T) {
	s := hh.New[uint64](hh.WithCapacity(8))
	defer func() {
		if recover() == nil {
			t.Fatal("fractional weight on a unit backend did not panic")
		}
	}()
	s.UpdateWeighted(1, 1.5)
}

func TestOptionValidation(t *testing.T) {
	cases := map[string]func(){
		"capacity<1":          func() { hh.New[uint64](hh.WithCapacity(0)) },
		"capacity+budget":     func() { hh.New[uint64](hh.WithCapacity(5), hh.WithErrorBudget(0.1, 0)) },
		"bad eps":             func() { hh.New[uint64](hh.WithErrorBudget(0, 0.5)) },
		"bad phi":             func() { hh.New[uint64](hh.WithErrorBudget(0.1, 2)) },
		"negative shards":     func() { hh.New[uint64](hh.WithShards(-1)) },
		"weighted lossy":      func() { hh.New[uint64](hh.WithAlgorithm(hh.AlgoLossyCounting), hh.WithWeighted()) },
		"weighted countmin":   func() { hh.New[uint64](hh.WithAlgorithm(hh.AlgoCountMin), hh.WithWeighted()) },
		"nonpositive weight":  func() { hh.New[uint64]().UpdateWeighted(1, 0) },
		"bad phi heavyhitter": func() { hh.New[uint64]().HeavyHitters(0) },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestErrorBudgetSizing(t *testing.T) {
	s := hh.New[uint64](hh.WithErrorBudget(0.01, 0))
	if got := s.Capacity(); got != 100 {
		t.Errorf("eps=0.01 sized m=%d, want 100", got)
	}
	// phi dominates when tighter: 1/phi + 1 = 201 > 1/eps = 100.
	s = hh.New[uint64](hh.WithErrorBudget(0.01, 0.005))
	if got := s.Capacity(); got != 201 {
		t.Errorf("eps=0.01, phi=0.005 sized m=%d, want 201", got)
	}
}

func TestParseAlgoRoundTrip(t *testing.T) {
	for _, a := range allAlgos {
		got, err := hh.ParseAlgo(a.String())
		if err != nil || got != a {
			t.Errorf("ParseAlgo(%q) = %v, %v", a.String(), got, err)
		}
	}
	if _, err := hh.ParseAlgo("nope"); err == nil {
		t.Error("ParseAlgo accepted an unknown name")
	}
}

func TestMergeRoundTripEveryCounterAlgo(t *testing.T) {
	// Split a Zipf stream in two, summarize the halves, merge, and
	// verify every item's merged estimate against the Theorem 11 bound
	// (when a guarantee exists) and every interval against the truth.
	const n, total, m, k = 300, 60000, 150, 8
	s := stream.Zipf(n, 1.1, total, stream.OrderRandom, 13)
	truth := exact.FromStream(s)
	for _, algo := range counterAlgos {
		t.Run(algo.String(), func(t *testing.T) {
			a := hh.New[uint64](hh.WithAlgorithm(algo), hh.WithCapacity(m))
			b := hh.New[uint64](hh.WithAlgorithm(algo), hh.WithCapacity(m))
			for i, x := range s {
				if i%2 == 0 {
					a.Update(x)
				} else {
					b.Update(x)
				}
			}
			merged, err := a.Merge(b)
			if err != nil {
				t.Fatal(err)
			}
			if g, ok := merged.Guarantee(); ok {
				bound := g.Bound(m, k, truth.Res1(k))
				for i := uint64(0); i < n; i++ {
					if d := math.Abs(truth.Freq(i) - merged.Estimate(i)); d > bound {
						t.Errorf("item %d: merged error %v exceeds bound %v", i, d, bound)
					}
				}
			}
			for i := uint64(0); i < n; i++ {
				lo, hi := merged.EstimateBounds(i)
				if f := truth.Freq(i); f < lo-1e-9 || f > hi+1e-9 {
					t.Errorf("item %d: true %v outside merged interval [%v, %v]", i, f, lo, hi)
				}
			}
		})
	}
}

func TestMergeRejectsSketches(t *testing.T) {
	a := hh.New[uint64](hh.WithAlgorithm(hh.AlgoCountMin), hh.WithCapacity(64))
	b := hh.New[uint64](hh.WithCapacity(64))
	if _, err := a.Merge(b); err == nil {
		t.Error("merging a sketch-backed summary did not fail")
	}
	if _, err := b.Merge(a); err == nil {
		t.Error("merging with a sketch-backed summary did not fail")
	}
	if _, err := hh.MergeSummaries[uint64](10); err == nil {
		t.Error("empty merge did not fail")
	}
}

func TestMergeWeightedAndSharded(t *testing.T) {
	a := hh.New[string](hh.WithWeighted(), hh.WithCapacity(16))
	a.UpdateWeighted("x", 5.5)
	b := hh.New[string](hh.WithShards(3), hh.WithCapacity(16))
	b.Update("x")
	b.Update("y")
	merged, err := a.Merge(b)
	if err != nil {
		t.Fatal(err)
	}
	if got := merged.Estimate("x"); got != 6.5 {
		t.Errorf("merged x = %v, want 6.5", got)
	}
	if got := merged.N(); got != 7.5 {
		t.Errorf("merged N = %v, want 7.5", got)
	}
}

func TestShardedConcurrentUse(t *testing.T) {
	// Hammer a sharded summary from many goroutines (run with -race in
	// CI); the aggregate mass and the dominant item must come out right.
	const goroutines, perG = 8, 20000
	c := hh.New[uint64](hh.WithShards(4), hh.WithCapacity(64))
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			s := stream.Zipf(200, 1.1, perG, stream.OrderRandom, seed)
			c.UpdateBatch(s[:perG/2])
			for _, x := range s[perG/2:] {
				c.Update(x)
			}
		}(uint64(g))
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				c.Estimate(0)
				c.Top(5)
				c.HeavyHitters(0.05)
			}
		}
	}()
	wg.Wait()
	close(done)
	if got := c.N(); got != goroutines*perG {
		t.Errorf("N = %v, want %d", got, goroutines*perG)
	}
	top := c.Top(1)
	if len(top) != 1 || top[0].Item != 0 {
		t.Errorf("Top(1) = %v, want item 0", top)
	}
}

// TestShardedSketchBatchMaphashKeys pins the one-hash batch path for
// key types that fall back to maphash (neither uint64 nor string): the
// partitioner's precomputed hashes are reused as the sketch key hashes,
// which is only sound because the partitioner and every shard's sketch
// backend share one hash closure — separately built maphash closures
// draw different random seeds and would record counts under hashes that
// Estimate never queries.
func TestShardedSketchBatchMaphashKeys(t *testing.T) {
	for _, algo := range []hh.Algo{hh.AlgoCountMin, hh.AlgoCountSketch} {
		sum := hh.New[int](hh.WithAlgorithm(algo), hh.WithShards(4), hh.WithCapacity(256))
		batch := make([]int, 0, 1000)
		for i := 0; i < 1000; i++ {
			batch = append(batch, 7)
		}
		sum.UpdateBatch(batch)
		if got := sum.Estimate(7); got != 1000 {
			t.Errorf("%v: Estimate(7) = %v after batched ingest, want 1000", algo, got)
		}
		if top := sum.Top(1); len(top) != 1 || top[0].Item != 7 {
			t.Errorf("%v: Top(1) = %v, want item 7", algo, top)
		}
	}
}

func TestShardedHeavyHittersNoFalseNegatives(t *testing.T) {
	const phi = 0.01
	s := stream.Zipf(1000, 1.2, 100000, stream.OrderRandom, 7)
	truth := exact.FromStream(s)
	c := hh.New[uint64](hh.WithShards(8), hh.WithErrorBudget(phi, phi))
	c.UpdateBatch(s)
	reported := map[uint64]bool{}
	for _, h := range c.HeavyHitters(phi) {
		reported[h.Item] = true
		if h.Guaranteed && truth.Freq(h.Item) < phi*truth.F1() {
			t.Errorf("item %d guaranteed but true %v below threshold", h.Item, truth.Freq(h.Item))
		}
		if f := truth.Freq(h.Item); f < h.Lo || f > h.Hi {
			t.Errorf("item %d: true %v outside [%v, %v]", h.Item, f, h.Lo, h.Hi)
		}
	}
	for i := uint64(0); i < 1000; i++ {
		if truth.Freq(i) >= phi*truth.F1() && !reported[i] {
			t.Errorf("phi-heavy item %d not reported", i)
		}
	}
}

func TestInvariantKTailBoundOnZipf(t *testing.T) {
	// The headline inequality through the unified surface: for HTC
	// algorithms built by New, every item's error on Zipf input respects
	// A·F1^res(k)/(m − B·k) for a range of k (bounds.go arithmetic).
	const n, total, m = 500, 50000, 64
	s := stream.Zipf(n, 1.1, total, stream.OrderRandom, 21)
	truth := exact.FromStream(s)
	for _, algo := range []hh.Algo{hh.AlgoSpaceSaving, hh.AlgoFrequent} {
		sum := hh.New[uint64](hh.WithAlgorithm(algo), hh.WithCapacity(m))
		sum.UpdateBatch(s)
		g, ok := sum.Guarantee()
		if !ok {
			t.Fatalf("%v: no guarantee", algo)
		}
		for _, k := range []int{0, 4, 16, 48} {
			bound := g.Bound(m, k, truth.Res1(k))
			for i := uint64(0); i < n; i++ {
				if d := math.Abs(truth.Freq(i) - sum.Estimate(i)); d > bound {
					t.Errorf("%v k=%d item %d: error %v exceeds bound %v", algo, k, i, d, bound)
				}
			}
		}
	}
}

func TestRecoverMatchesLegacyRecovery(t *testing.T) {
	s := stream.Zipf(200, 1.2, 20000, stream.OrderRandom, 3)
	sum := hh.New[uint64](hh.WithCapacity(50))
	legacy := hh.NewSpaceSaving[uint64](50)
	for _, x := range s {
		sum.Update(x)
		legacy.Update(x)
	}
	got := sum.Recover(8)
	want := hh.KSparseRecovery[uint64](legacy, 8)
	if len(got) != len(want) {
		t.Fatalf("Recover has %d entries, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("Recover[%d] = %v, want %v", k, got[k], v)
		}
	}
}

func TestCodecV2RoundTripUint64(t *testing.T) {
	s := stream.Zipf(300, 1.2, 30000, stream.OrderRandom, 11)
	for _, algo := range counterAlgos {
		t.Run(algo.String(), func(t *testing.T) {
			src := hh.New[uint64](hh.WithAlgorithm(algo), hh.WithCapacity(60))
			src.UpdateBatch(s)
			var buf bytes.Buffer
			if err := src.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			dec, err := hh.Decode[uint64](bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if dec.Algorithm() != algo {
				t.Errorf("decoded algo %v, want %v", dec.Algorithm(), algo)
			}
			// Point estimates of stored items survive the round trip.
			for _, e := range src.Top(src.Len()) {
				if got := dec.Estimate(e.Item); got != e.Count {
					t.Errorf("item %v: decoded %v, want %v", e.Item, got, e.Count)
				}
				// Decoded intervals must contain the producer's.
				slo, shi := src.EstimateBounds(e.Item)
				dlo, dhi := dec.EstimateBounds(e.Item)
				if dlo > slo+1e-9 || dhi < shi-1e-9 {
					t.Errorf("item %v: decoded interval [%v, %v] narrower than source [%v, %v]",
						e.Item, dlo, dhi, slo, shi)
				}
			}
			g1, ok1 := src.Guarantee()
			g2, ok2 := dec.Guarantee()
			if ok1 != ok2 || g1 != g2 {
				t.Errorf("guarantee %v,%v -> %v,%v", g1, ok1, g2, ok2)
			}
		})
	}
}

func TestCodecV2RoundTripString(t *testing.T) {
	src := hh.New[string](hh.WithCapacity(16))
	for i := 0; i < 100; i++ {
		src.Update("w" + strconv.Itoa(i%7))
	}
	var buf bytes.Buffer
	if err := src.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := hh.Decode[string](bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := dec.Estimate("w0"); got != src.Estimate("w0") {
		t.Errorf("decoded w0 = %v, want %v", got, src.Estimate("w0"))
	}
	// Key-kind mismatch must be rejected, not misread.
	if _, err := hh.Decode[uint64](bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("decoding string-keyed bytes as uint64 succeeded")
	}
}

func TestCodecV2RejectsSketchAndStruct(t *testing.T) {
	var buf bytes.Buffer
	sk := hh.New[uint64](hh.WithAlgorithm(hh.AlgoCountSketch), hh.WithCapacity(32))
	if err := sk.Encode(&buf); err == nil {
		t.Error("encoding a sketch summary succeeded")
	}
	type pair struct{ A, B int }
	ps := hh.New[pair](hh.WithCapacity(8))
	ps.Update(pair{1, 2})
	if err := ps.Encode(&buf); err == nil {
		t.Error("encoding a struct-keyed summary succeeded")
	}
}

func TestMergedBoundsCoverEvictedItems(t *testing.T) {
	// An item a full input evicted may carry up to that input's minimum
	// counter; the merged upper bound must cover it (code-review repro).
	a := hh.New[uint64](hh.WithCapacity(2))
	b := hh.New[uint64](hh.WithCapacity(2))
	for _, x := range []uint64{1, 1, 1, 2, 2, 3, 3, 3, 3} {
		a.Update(x)
	}
	for _, x := range []uint64{4, 4, 5} {
		b.Update(x)
	}
	merged, err := hh.MergeSummaries(100, a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Item 2 (true count 2) was evicted by a; item absent everywhere.
	if _, hi := merged.EstimateBounds(2); hi < 2 {
		t.Errorf("merged hi for evicted item = %v, want >= 2", hi)
	}
	// A stored item may also hide mass in the input that evicted it.
	for _, item := range []uint64{1, 3} {
		truth := map[uint64]float64{1: 3, 3: 4}[item]
		lo, hi := merged.EstimateBounds(item)
		if truth < lo || truth > hi {
			t.Errorf("item %d: true %v outside merged [%v, %v]", item, truth, lo, hi)
		}
	}
}

func TestShardedDecodeBoundsAndGuarantee(t *testing.T) {
	// A full sharded producer encodes an inflated capacity; the decoded
	// summary must keep sound per-item intervals and a guarantee whose
	// bound matches the per-shard one (constants rescaled with the
	// capacity).
	s := stream.Zipf(2000, 1.1, 100000, stream.OrderRandom, 31)
	truth := exact.FromStream(s)
	src := hh.New[uint64](hh.WithShards(4), hh.WithCapacity(100))
	src.UpdateBatch(s)
	var buf bytes.Buffer
	if err := src.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := hh.Decode[uint64](bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 2000; i++ {
		lo, hi := dec.EstimateBounds(i)
		if f := truth.Freq(i); f < lo-1e-9 || f > hi+1e-9 {
			t.Errorf("item %d: true %v outside decoded [%v, %v]", i, f, lo, hi)
		}
	}
	g, ok := dec.Guarantee()
	if !ok {
		t.Fatal("decoded sharded summary lost its guarantee")
	}
	// The advertised bound at the decoded capacity must be no tighter
	// than the per-shard bound the producer actually provides.
	const k = 10
	res := truth.Res1(k)
	perShard := hh.TailGuarantee{A: 1, B: 1}.Bound(100, k, res)
	if got := g.Bound(dec.Capacity(), k, res); got < perShard-1e-9 {
		t.Errorf("decoded bound %v tighter than per-shard bound %v", got, perShard)
	}
}

func TestDecodeRejectsHostileHeaders(t *testing.T) {
	// A well-formed prefix claiming absurd sizes must be rejected before
	// any large allocation, not absorbed.
	src := hh.New[uint64](hh.WithCapacity(4))
	src.Update(1)
	var buf bytes.Buffer
	if err := src.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	// Bytes 0-5 magic, 6 algo, 7 flags, 8 kind, 9.. capacity uvarint.
	huge := append([]byte{}, good[:9]...)
	huge = append(huge, 0xff, 0xff, 0xff, 0xff, 0x7f) // capacity ≈ 2^34
	if _, err := hh.Decode[uint64](bytes.NewReader(huge)); err == nil {
		t.Error("huge capacity accepted")
	}
	// count > capacity must be rejected too: claim 200 entries against
	// capacity 4 by corrupting the count byte, which sits just before
	// the single 17-byte entry (1-byte key uvarint + two 8-byte floats).
	bad := append([]byte{}, good...)
	bad[len(bad)-18] = 200
	if _, err := hh.Decode[uint64](bytes.NewReader(bad)); err == nil {
		t.Error("entry count exceeding capacity accepted")
	}
}

func TestSketchBackendsTrackHeavyHitters(t *testing.T) {
	s := stream.Zipf(2000, 1.3, 100000, stream.OrderRandom, 9)
	truth := exact.FromStream(s)
	for _, algo := range []hh.Algo{hh.AlgoCountMin, hh.AlgoCountSketch} {
		t.Run(algo.String(), func(t *testing.T) {
			sk := hh.New[uint64](hh.WithAlgorithm(algo), hh.WithCapacity(512), hh.WithSeed(42))
			sk.UpdateBatch(s)
			top := sk.Top(5)
			if len(top) != 5 {
				t.Fatalf("Top(5) returned %d entries", len(top))
			}
			// The undisputed #1 of a 1.3-Zipf must surface.
			if top[0].Item != 0 {
				t.Errorf("top item = %d, want 0", top[0].Item)
			}
			if est := sk.Estimate(0); math.Abs(est-truth.Freq(0)) > 0.1*truth.Freq(0) {
				t.Errorf("Estimate(0) = %v, true %v", est, truth.Freq(0))
			}
			// Count-Min upper bounds are certain.
			if algo == hh.AlgoCountMin {
				for i := uint64(0); i < 100; i++ {
					if _, hi := sk.EstimateBounds(i); truth.Freq(i) > hi {
						t.Errorf("item %d: true %v above certain hi %v", i, truth.Freq(i), hi)
					}
				}
			}
		})
	}
}

func TestStructKeysWorkOnCounterBackends(t *testing.T) {
	type flow struct{ Src, Dst uint32 }
	s := hh.New[flow](hh.WithShards(4), hh.WithCapacity(16))
	hot := flow{1, 2}
	for i := 0; i < 50; i++ {
		s.Update(hot)
		if i%10 == 0 {
			s.Update(flow{uint32(i), 9})
		}
	}
	if got := s.Estimate(hot); got < 50 {
		t.Errorf("Estimate(hot) = %v, want >= 50", got)
	}
	if top := s.Top(1); top[0].Item != hot {
		t.Errorf("Top(1) = %v", top)
	}
}

func TestDecodePreservesMass(t *testing.T) {
	// The decoded N() must equal the producer's for every counter algo —
	// in particular the undercounting ones (FREQUENT/LOSSYCOUNTING),
	// whose stored counts sum to far less than the stream mass: the
	// review repro was FREQUENT m=4 over a 100-item uniform stream
	// decoding to N()=0. A wrong N() skews every phi·N HeavyHitters
	// threshold on the consumer.
	uniform := make([]uint64, 0, 100)
	for i := 0; i < 100; i++ {
		uniform = append(uniform, uint64(i))
	}
	for _, algo := range counterAlgos {
		for _, shards := range []int{0, 3} {
			name := algo.String()
			if shards > 0 {
				name += "-sharded"
			}
			t.Run(name, func(t *testing.T) {
				opts := []hh.Option{hh.WithAlgorithm(algo), hh.WithCapacity(4)}
				if shards > 0 {
					opts = append(opts, hh.WithShards(shards))
				}
				src := hh.New[uint64](opts...)
				src.UpdateBatch(uniform)
				var buf bytes.Buffer
				if err := src.Encode(&buf); err != nil {
					t.Fatal(err)
				}
				dec, err := hh.Decode[uint64](bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				if got, want := dec.N(), src.N(); math.Abs(got-want) > 1e-9 {
					t.Fatalf("decoded N = %v, want %v", got, want)
				}
				// The carried mass must survive a second round trip.
				buf.Reset()
				if err := dec.Encode(&buf); err != nil {
					t.Fatal(err)
				}
				dec2, err := hh.Decode[uint64](bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				if got, want := dec2.N(), src.N(); math.Abs(got-want) > 1e-9 {
					t.Fatalf("twice-decoded N = %v, want %v", got, want)
				}
			})
		}
	}
}

func TestDecodedHeavyHittersUseProducerMass(t *testing.T) {
	// With the true N carried through, a decoded FREQUENT summary must
	// not promote items to Guaranteed against a shrunken threshold: on a
	// uniform stream nothing reaches phi = 0.5 of the mass.
	src := hh.New[uint64](hh.WithAlgorithm(hh.AlgoFrequent), hh.WithCapacity(4))
	for i := 0; i < 100; i++ {
		src.Update(uint64(i))
	}
	var buf bytes.Buffer
	if err := src.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := hh.Decode[uint64](bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range dec.HeavyHitters(0.5) {
		if r.Guaranteed {
			t.Errorf("item %d marked Guaranteed at phi=0.5 of a uniform stream", r.Item)
		}
	}
}

func TestMergePreservesMass(t *testing.T) {
	// The merged N() must be the union stream's mass, not the sum of the
	// inputs' stored counts — the same defect class as the decode one,
	// reachable whenever an input undercounts (FREQUENT/LOSSYCOUNTING or
	// a decoded summary carrying slack).
	for _, algo := range counterAlgos {
		t.Run(algo.String(), func(t *testing.T) {
			a := hh.New[uint64](hh.WithAlgorithm(algo), hh.WithCapacity(4))
			b := hh.New[uint64](hh.WithAlgorithm(algo), hh.WithCapacity(4))
			for i := 0; i < 100; i++ {
				a.Update(uint64(i))
				b.Update(uint64(i % 10))
			}
			want := a.N() + b.N()
			merged, err := a.Merge(b)
			if err != nil {
				t.Fatal(err)
			}
			if got := merged.N(); math.Abs(got-want) > 1e-9 {
				t.Fatalf("merged N = %v, want %v", got, want)
			}
			// Chained merge → encode → decode stays consistent.
			var buf bytes.Buffer
			if err := merged.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			dec, err := hh.Decode[uint64](bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if got := dec.N(); math.Abs(got-want) > 1e-9 {
				t.Fatalf("decoded merged N = %v, want %v", got, want)
			}
			// And a merge of decoded inputs still sums the true masses.
			remerged, err := dec.Merge(a)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := remerged.N(), want+a.N(); math.Abs(got-want) > 1e-9 {
				t.Fatalf("re-merged N = %v, want %v", got, want)
			}
		})
	}
}

func TestTopNonPositiveK(t *testing.T) {
	s := hh.New[uint64](hh.WithCapacity(8))
	s.Update(1)
	s.Update(2)
	if got := s.Top(0); got != nil {
		t.Errorf("Top(0) = %v, want nil", got)
	}
	if got := s.Top(-1); got != nil {
		t.Errorf("Top(-1) = %v, want nil", got)
	}
	weighted := hh.New[uint64](hh.WithWeighted(), hh.WithCapacity(8))
	weighted.UpdateWeighted(1, 2.5)
	if got := weighted.Top(-1); got != nil {
		t.Errorf("weighted Top(-1) = %v, want nil", got)
	}
}

func TestIntegralWeightOverflowPanics(t *testing.T) {
	// A huge integral float64 passes the Trunc test but overflows the
	// uint64 conversion; it must be rejected, not silently corrupt the
	// counts.
	for _, algo := range []hh.Algo{hh.AlgoSpaceSaving, hh.AlgoCountMin} {
		s := hh.New[uint64](hh.WithAlgorithm(algo), hh.WithCapacity(8))
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v: UpdateWeighted(1e20) did not panic", algo)
				}
			}()
			s.UpdateWeighted(1, 1e20)
		}()
	}
}

func TestNonFiniteWeightPanics(t *testing.T) {
	// NaN slips past a plain w <= 0 test and +Inf past the integrality
	// test; either would silently poison N() and every phi·N threshold.
	s := hh.New[string](hh.WithWeighted(), hh.WithCapacity(8))
	for _, w := range []float64{math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("UpdateWeighted(%v) did not panic", w)
				}
			}()
			s.UpdateWeighted("a", w)
		}()
	}
	if s.N() != 0 {
		t.Errorf("N = %v after rejected updates, want 0", s.N())
	}
	// The legacy weighted counters guard the same way.
	r := hh.NewSpaceSavingR[string](8)
	fr := hh.NewFrequentR[string](8)
	for _, w := range []float64{math.NaN(), math.Inf(1)} {
		for name, fn := range map[string]func(){
			"SpaceSavingR": func() { r.UpdateWeighted("a", w) },
			"FrequentR":    func() { fr.UpdateWeighted("a", w) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s.UpdateWeighted(%v) did not panic", name, w)
					}
				}()
				fn()
			}()
		}
	}
}

func TestSummaryResidual(t *testing.T) {
	s := hh.New[uint64](hh.WithCapacity(16))
	for i := 0; i < 60; i++ {
		s.Update(uint64(i % 4)) // 4 items x 15
	}
	if got := hh.SummaryResidual(s, 2); got != 30 {
		t.Errorf("SummaryResidual(k=2) = %v, want 30", got)
	}
	if got := hh.SummaryResidual(s, 100); got != 0 {
		t.Errorf("SummaryResidual(k=100) = %v, want 0", got)
	}
}
