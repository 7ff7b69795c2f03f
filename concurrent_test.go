package heavyhitters_test

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	hh "repro"
	"repro/internal/exact"
	"repro/internal/stream"
)

// concurrentSharded is the thread-safe sharded composition: p locked
// SPACESAVING shards of m counters behind the lock-free read tier.
func concurrentSharded[K comparable](p, m int) hh.Summary[K] {
	return hh.New[K](hh.WithConcurrent(), hh.WithShards(p), hh.WithCapacity(m))
}

func TestConcurrentSequentialCorrectness(t *testing.T) {
	c := concurrentSharded[uint64](4, 32)
	s := stream.Zipf(500, 1.2, 50000, stream.OrderRandom, 3)
	truth := exact.FromStream(s)
	for _, x := range s {
		c.Update(x)
	}
	if c.N() != float64(len(s)) {
		t.Errorf("N = %v, want %d", c.N(), len(s))
	}
	// Items are partitioned across shards, so per-item estimates keep a
	// shard-level overestimate guarantee: estimate >= true for stored.
	for i := uint64(0); i < 10; i++ {
		if c.Estimate(i) < truth.Freq(i) {
			t.Errorf("item %d: estimate %v under true %v", i, c.Estimate(i), truth.Freq(i))
		}
	}
}

// TestConcurrentSnapshotGuarantee compacts a concurrent sharded summary
// into m counters with MergeSummaries: the compaction pays the Theorem
// 11 degradation, so the result must honour the merged (3, 2) bound.
func TestConcurrentSnapshotGuarantee(t *testing.T) {
	const n, total, m, k = 400, 80000, 100, 10
	c := concurrentSharded[uint64](8, m)
	s := stream.Zipf(n, 1.1, total, stream.OrderRandom, 5)
	truth := exact.FromStream(s)
	for _, x := range s {
		c.Update(x)
	}
	snap, err := hh.MergeSummaries(m, c)
	if err != nil {
		t.Fatal(err)
	}
	g := hh.MergedGuarantee(hh.TailGuarantee{A: 1, B: 1})
	if got, ok := snap.Guarantee(); !ok || got != g {
		t.Errorf("compacted Guarantee = %v, %v; want %v", got, ok, g)
	}
	bound := g.Bound(m, k, truth.Res1(k))
	for i := uint64(0); i < n; i++ {
		if d := math.Abs(truth.Freq(i) - snap.Estimate(i)); d > bound {
			t.Errorf("item %d: compacted error %v exceeds (3,2) bound %v", i, d, bound)
		}
	}
}

func TestConcurrentParallelUpdates(t *testing.T) {
	// Hammer the structure from many goroutines; run with -race in CI.
	const goroutines, perG = 8, 20000
	c := concurrentSharded[uint64](4, 64)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			s := stream.Zipf(200, 1.1, perG, stream.OrderRandom, seed)
			for _, x := range s {
				c.Update(x)
			}
		}(uint64(g))
	}
	// Concurrent readers.
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				c.Estimate(0)
				c.Top(10)
			}
		}
	}()
	wg.Wait()
	close(done)
	if c.N() != goroutines*perG {
		t.Errorf("N = %v, want %d", c.N(), goroutines*perG)
	}
	// Item 0 is the heavy hitter of every goroutine's stream; it must
	// lead the final ranking.
	top := c.Top(1)
	if len(top) != 1 || top[0].Item != 0 {
		t.Errorf("Top(1) = %v, want item 0", top)
	}
}

func TestConcurrentStringKeys(t *testing.T) {
	c := concurrentSharded[string](4, 16)
	for i := 0; i < 100; i++ {
		c.Update("hot")
		if i%10 == 0 {
			c.Update("warm")
		}
	}
	if got := c.Estimate("hot"); got < 100 {
		t.Errorf("Estimate(hot) = %v, want >= 100", got)
	}
	top := c.Top(1)
	if top[0].Item != "hot" {
		t.Errorf("Top = %v", top)
	}
}

func TestConcurrentReset(t *testing.T) {
	c := concurrentSharded[uint64](2, 8)
	c.Update(1)
	c.Reset()
	if c.N() != 0 || c.Estimate(1) != 0 {
		t.Error("Reset did not clear state")
	}
	c.Update(2)
	if c.Estimate(2) != 1 {
		t.Error("unusable after Reset")
	}
}

func TestConcurrentConstructorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"p<0": func() { concurrentSharded[uint64](-1, 8) },
		"m=0": func() { concurrentSharded[uint64](2, 0) },
	} {
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

func TestConcurrentAccessors(t *testing.T) {
	c := concurrentSharded[uint64](3, 16)
	if c.Capacity() != 16 {
		t.Errorf("Capacity = %d, want the per-shard 16", c.Capacity())
	}
	if got := fmt.Sprint(c); !strings.Contains(got, "m: 16") {
		t.Errorf("String() = %q, want the per-shard capacity", got)
	}
}

// TestConcurrentSummaryBridge pins the full query surface of a
// concurrent sharded summary: bound-carrying per-item queries, TopAppend,
// HeavyHitters, the live (1, 1) guarantee, the codec and merging, all
// safe for concurrent use.
func TestConcurrentSummaryBridge(t *testing.T) {
	view := concurrentSharded[uint64](4, 64)
	str := stream.Zipf(200, 1.2, 30000, stream.OrderRandom, 41)
	truth := exact.FromStream(str)
	for _, x := range str {
		view.Update(x)
	}

	if got, want := view.N(), float64(len(str)); got != want {
		t.Fatalf("N() = %v, want %v", got, want)
	}
	if view.Algorithm() != hh.AlgoSpaceSaving {
		t.Errorf("Algorithm = %v", view.Algorithm())
	}
	// Bound-carrying per-item queries: certain intervals around the
	// point estimate.
	for i := uint64(0); i < 200; i++ {
		lo, hi := view.EstimateBounds(i)
		if f := truth.Freq(i); lo > f || hi < f {
			t.Fatalf("bounds [%v, %v] exclude true frequency %v of item %d", lo, hi, f, i)
		}
		if est := view.Estimate(i); est < lo || est > hi {
			t.Fatalf("Estimate(%d) = %v outside its bounds [%v, %v]", i, est, lo, hi)
		}
	}
	// TopAppend into a reused buffer, decreasing and duplicate-free.
	var buf []hh.WeightedEntry[uint64]
	buf = view.TopAppend(buf[:0], 10)
	if len(buf) != 10 || buf[0].Item != 0 {
		t.Fatalf("TopAppend = %v", buf)
	}
	for i := 1; i < len(buf); i++ {
		if buf[i].Count > buf[i-1].Count {
			t.Fatalf("TopAppend out of order at %d", i)
		}
	}
	// HeavyHitters carries certain bounds and finds the heavy items.
	hits := view.HeavyHitters(0.05)
	if len(hits) == 0 {
		t.Fatal("no heavy hitters reported")
	}
	found := false
	for _, h := range hits {
		if h.Item == 0 {
			found = true
			if f := truth.Freq(0); h.Lo > f || h.Hi < f {
				t.Errorf("hit bounds [%v, %v] exclude %v", h.Lo, h.Hi, f)
			}
		}
	}
	if !found {
		t.Error("heaviest item missing from HeavyHitters")
	}
	// Aggregate queries concatenate the disjoint shards instead of
	// compacting them, so no merge degradation applies.
	if g, ok := view.Guarantee(); !ok || g.A != 1 || g.B != 1 {
		t.Errorf("Guarantee = %v, %v; want the live (1, 1), not a compaction's (3, 2)", g, ok)
	}

	view.Update(777_777)
	view.UpdateWeighted(777_777, 4)
	if got := view.Estimate(777_777); got != 5 {
		t.Errorf("Estimate after mixed updates = %v, want 5", got)
	}
	if got := view.N(); got != float64(len(str))+5 {
		t.Errorf("N() = %v after updates", got)
	}

	var blob bytes.Buffer
	if err := view.Encode(&blob); err != nil {
		t.Fatal(err)
	}
	dec, err := hh.Decode[uint64](&blob)
	if err != nil {
		t.Fatal(err)
	}
	if dec.N() != view.N() {
		t.Errorf("decoded N = %v, want %v", dec.N(), view.N())
	}
	if _, err := view.Merge(hh.New[uint64](hh.WithCapacity(64))); err != nil {
		t.Errorf("merging failed: %v", err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			for i := uint64(0); i < 2000; i++ {
				view.Update(base + i%50)
				if i%500 == 0 {
					view.TopAppend(nil, 5)
					view.EstimateBounds(base)
				}
			}
		}(uint64(g) * 1000)
	}
	wg.Wait()
}
