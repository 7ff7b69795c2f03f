package heavyhitters_test

import (
	"testing"
	"testing/quick"

	hh "repro"
	"repro/internal/exact"
	"repro/internal/stream"
)

func TestHeavyHittersBasic(t *testing.T) {
	ss := hh.New[string](hh.WithCapacity(8))
	for i := 0; i < 60; i++ {
		ss.Update("hot")
	}
	for i := 0; i < 25; i++ {
		ss.Update("warm")
	}
	for i := 0; i < 15; i++ {
		ss.Update("cool")
	}
	// N = 100; phi = 0.2 → threshold 20.
	hits := ss.HeavyHitters(0.2)
	if len(hits) != 2 {
		t.Fatalf("got %d heavy hitters, want 2: %v", len(hits), hits)
	}
	if hits[0].Item != "hot" || !hits[0].Guaranteed {
		t.Errorf("first hit = %+v, want guaranteed 'hot'", hits[0])
	}
	if hits[1].Item != "warm" || !hits[1].Guaranteed {
		t.Errorf("second hit = %+v, want guaranteed 'warm'", hits[1])
	}
}

func TestHeavyHittersNoFalseNegativesProperty(t *testing.T) {
	// With m = 1/phi + 1 counters, every item with f >= phi*N must be
	// reported — for both algorithms, unsharded and sharded, on
	// arbitrary streams.
	const phi = 0.125
	err := quick.Check(func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		m := hh.CountersForHeavyHitters(phi)
		summaries := []hh.Summary[uint64]{
			hh.New[uint64](hh.WithCapacity(m)),
			hh.New[uint64](hh.WithAlgorithm(hh.AlgoFrequent), hh.WithCapacity(m)),
			concurrentSharded[uint64](3, m),
		}
		truth := exact.New()
		for _, b := range raw {
			x := uint64(b) % 20
			for _, s := range summaries {
				s.Update(x)
			}
			truth.Update(x)
		}
		threshold := phi * truth.F1()
		for _, s := range summaries {
			reported := map[uint64]bool{}
			for _, h := range s.HeavyHitters(phi) {
				reported[h.Item] = true
			}
			for i := uint64(0); i < 20; i++ {
				if truth.Freq(i) >= threshold && !reported[i] {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHeavyHittersGuaranteedAreTrue(t *testing.T) {
	// Guaranteed hits must truly be above the threshold.
	const phi = 0.01
	s := stream.Zipf(1000, 1.2, 100000, stream.OrderRandom, 7)
	truth := exact.FromStream(s)
	for _, algo := range []hh.Algo{hh.AlgoSpaceSaving, hh.AlgoFrequent} {
		ss := hh.New[uint64](hh.WithAlgorithm(algo), hh.WithCapacity(hh.CountersForHeavyHitters(phi)))
		ss.UpdateBatch(s)
		threshold := phi * truth.F1()
		for _, h := range ss.HeavyHitters(phi) {
			if h.Guaranteed && truth.Freq(h.Item) < threshold {
				t.Errorf("%v: item %d guaranteed but true frequency %v < %v", algo, h.Item, truth.Freq(h.Item), threshold)
			}
			if h.Lo > truth.Freq(h.Item) || truth.Freq(h.Item) > h.Hi {
				t.Errorf("%v: item %d: true %v outside [%v, %v]", algo, h.Item, truth.Freq(h.Item), h.Lo, h.Hi)
			}
		}
	}
}

func TestHeavyHittersSortedByUpperBound(t *testing.T) {
	s := stream.Zipf(200, 1.3, 20000, stream.OrderRandom, 3)
	ss := hh.New[uint64](hh.WithCapacity(50), hh.WithShards(4))
	ss.UpdateBatch(s)
	hits := ss.HeavyHitters(0.01)
	for i := 1; i < len(hits); i++ {
		if hits[i].Hi > hits[i-1].Hi {
			t.Fatalf("hits not sorted by upper bound: %v", hits)
		}
	}
}

func TestHeavyHittersPanics(t *testing.T) {
	ss := hh.New[uint64](hh.WithCapacity(4))
	for _, phi := range []float64{0, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("phi=%v did not panic", phi)
				}
			}()
			ss.HeavyHitters(phi)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("CountersForHeavyHitters(0) did not panic")
			}
		}()
		hh.CountersForHeavyHitters(0)
	}()
}

func TestCountersForHeavyHitters(t *testing.T) {
	if got := hh.CountersForHeavyHitters(0.1); got != 11 {
		t.Errorf("CountersForHeavyHitters(0.1) = %d, want 11", got)
	}
	if got := hh.CountersForHeavyHitters(1); got != 2 {
		t.Errorf("CountersForHeavyHitters(1) = %d, want 2", got)
	}
}
