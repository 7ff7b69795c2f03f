package heavyhitters_test

// Black-box property tests over the public API: the paper's inequalities
// checked on randomized streams via testing/quick, complementing the
// white-box properties in the internal packages.

import (
	"bytes"
	"math"
	"sync"
	"testing"
	"testing/quick"

	hh "repro"
	"repro/internal/exact"
	"repro/internal/stream"
)

// smallStream derives a bounded-universe stream from raw fuzz bytes.
func smallStream(raw []uint8, universe uint64) []uint64 {
	s := make([]uint64, len(raw))
	for i, b := range raw {
		s[i] = uint64(b) % universe
	}
	return s
}

func TestPropertySpaceSavingDominatesTruth(t *testing.T) {
	err := quick.Check(func(raw []uint8, mRaw uint8) bool {
		m := int(mRaw)%12 + 1
		s := smallStream(raw, 24)
		ss := hh.NewSpaceSaving[uint64](m)
		truth := exact.New()
		for _, x := range s {
			ss.Update(x)
			truth.Update(x)
		}
		for _, e := range ss.Entries() {
			if float64(e.Count) < truth.Freq(e.Item) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 250})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPropertyFrequentNeverOvercounts(t *testing.T) {
	err := quick.Check(func(raw []uint8, mRaw uint8) bool {
		m := int(mRaw)%12 + 1
		s := smallStream(raw, 24)
		f := hh.NewFrequent[uint64](m)
		truth := exact.New()
		for _, x := range s {
			f.Update(x)
			truth.Update(x)
		}
		for i := uint64(0); i < 24; i++ {
			if float64(f.Estimate(i)) > truth.Freq(i) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 250})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPropertyTailGuaranteeOnRandomStreams(t *testing.T) {
	// The headline inequality on arbitrary (not just Zipfian) streams.
	err := quick.Check(func(raw []uint8, mRaw, kRaw uint8) bool {
		m := int(mRaw)%10 + 2
		k := int(kRaw) % m // k < m
		s := smallStream(raw, 32)
		truth := exact.New()
		for _, x := range s {
			truth.Update(x)
		}
		bound := hh.TailGuarantee{A: 1, B: 1}.Bound(m, k, truth.Res1(k))
		for _, mk := range []hh.Counter[uint64]{
			hh.NewFrequent[uint64](m),
			hh.NewSpaceSaving[uint64](m),
			hh.NewSpaceSavingHeap[uint64](m),
		} {
			for _, x := range s {
				mk.Update(x)
			}
			for i := uint64(0); i < 32; i++ {
				if math.Abs(truth.Freq(i)-float64(mk.Estimate(i))) > bound {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 150})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPropertyResidualEstimateSandwich(t *testing.T) {
	// F1 − ||f'||_1 is always within [res(k) − kΔ, res(k) + kΔ]
	// (the inequality inside the Theorem 6 proof), for any stream.
	err := quick.Check(func(raw []uint8, mRaw uint8) bool {
		m := int(mRaw)%12 + 4
		k := m / 4
		if k < 1 {
			k = 1
		}
		s := smallStream(raw, 24)
		ss := hh.NewSpaceSaving[uint64](m)
		truth := exact.New()
		for _, x := range s {
			ss.Update(x)
			truth.Update(x)
		}
		res := truth.Res1(k)
		delta := hh.TailGuarantee{A: 1, B: 1}.Bound(m, k, res)
		if math.IsInf(delta, 1) {
			return true
		}
		got := hh.EstimateResidual[uint64](ss, k, truth.F1())
		return got >= res-float64(k)*delta-1e-9 && got <= res+float64(k)*delta+1e-9
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMergeCountConservation(t *testing.T) {
	// Merging all counters of SPACESAVING summaries conserves the total
	// stream mass when the merged structure does not evict (m large
	// enough): Σ merged counters = N1 + N2 = merged N.
	err := quick.Check(func(rawA, rawB []uint8) bool {
		sA := smallStream(rawA, 16)
		sB := smallStream(rawB, 16)
		a := hh.New[uint64](hh.WithCapacity(32))
		b := hh.New[uint64](hh.WithCapacity(32))
		a.UpdateBatch(sA)
		b.UpdateBatch(sB)
		merged, err := hh.MergeSummaries(64, a, b)
		if err != nil {
			return false
		}
		var sum float64
		for e := range merged.All() {
			sum += e.Count
		}
		return sum == float64(len(sA)+len(sB)) && merged.N() == sum
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCodecRoundTrip(t *testing.T) {
	err := quick.Check(func(raw []uint8, mRaw uint8) bool {
		m := int(mRaw)%12 + 1
		s := smallStream(raw, 24)
		ss := hh.New[uint64](hh.WithCapacity(m))
		ss.UpdateBatch(s)
		var buf bytes.Buffer
		if err := ss.Encode(&buf); err != nil {
			return false
		}
		dec, err := hh.Decode[uint64](&buf)
		if err != nil {
			return false
		}
		return dec.N() == ss.N() && sameEntries(ss, dec)
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPropertyWeightedMatchesUnit(t *testing.T) {
	// Feeding unit weights through the weighted algorithms must keep the
	// mass identity Σ counters = N (SPACESAVINGR inherits SPACESAVING's
	// invariant when every b_i = 1).
	err := quick.Check(func(raw []uint8, mRaw uint8) bool {
		m := int(mRaw)%8 + 1
		s := smallStream(raw, 16)
		r := hh.NewSpaceSavingR[uint64](m)
		for _, x := range s {
			r.UpdateWeighted(x, 1)
		}
		var sum float64
		for _, e := range r.WeightedEntries() {
			sum += e.Count
		}
		return sum == float64(len(s))
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPropertyHeapAndListSameErrorBound(t *testing.T) {
	// The two SPACESAVING backing structures may store different items,
	// but both must satisfy the same per-item bound via the min counter.
	err := quick.Check(func(raw []uint8, mRaw uint8) bool {
		m := int(mRaw)%8 + 1
		s := smallStream(raw, 16)
		list := hh.NewSpaceSaving[uint64](m)
		heap := hh.NewSpaceSavingHeap[uint64](m)
		truth := exact.New()
		for _, x := range s {
			list.Update(x)
			heap.Update(x)
			truth.Update(x)
		}
		for i := uint64(0); i < 16; i++ {
			f := truth.Freq(i)
			if d := math.Abs(f - float64(list.Estimate(i))); d > float64(list.MinCount()) {
				return false
			}
			if d := math.Abs(f - float64(heap.Estimate(i))); d > float64(heap.MinCount()) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

// Quick sanity that stream generators and the concurrency tier compose
// under the public API (integration smoke, distinct from unit paths),
// with batch writers racing a reader.
func TestIntegrationConcurrentOnGeneratedStream(t *testing.T) {
	s := stream.Zipf(1000, 1.2, 50000, stream.OrderRandom, 21)
	c := concurrentSharded[uint64](4, 64)
	truth := exact.FromStream(s)
	const writers = 4
	per := len(s) / writers
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(part []uint64) {
			defer wg.Done()
			for lo := 0; lo < len(part); lo += 500 {
				c.UpdateBatch(part[lo:min(lo+500, len(part))])
				c.Top(5)
			}
		}(s[w*per : (w+1)*per])
	}
	wg.Wait()
	if c.N() != float64(len(s)) {
		t.Fatalf("N = %v, want %d", c.N(), len(s))
	}
	top := c.Top(5)
	if len(top) != 5 {
		t.Fatalf("Top(5) returned %d entries", len(top))
	}
	for _, e := range top[:3] {
		if truth.Freq(e.Item) == 0 {
			t.Errorf("top item %d never occurred", e.Item)
		}
	}
	if top[0].Item != 0 {
		t.Errorf("heaviest item = %d, want 0", top[0].Item)
	}
}
