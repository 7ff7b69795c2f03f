package heavyhitters_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	hh "repro"
	"repro/internal/exact"
	"repro/internal/stream"
)

func TestWeightedCodecRoundTrip(t *testing.T) {
	r := hh.New[uint64](hh.WithWeighted(), hh.WithCapacity(4))
	r.UpdateWeighted(1, 2.5)
	r.UpdateWeighted(2, 0.125)
	r.UpdateWeighted(1, 1e9)
	dec := roundTrip(t, r)
	if dec.Capacity() != 4 || dec.N() != r.N() {
		t.Errorf("decoded meta = %d/%v, want 4/%v", dec.Capacity(), dec.N(), r.N())
	}
	if !sameEntries(r, dec) {
		t.Errorf("entries = %v, want %v", dec.Top(dec.Len()), r.Top(r.Len()))
	}
}

// TestWeightedCodecGarbage feeds a windowed weighted producer's
// container cut at every byte, plus hand-built malformed headers.
func TestWeightedCodecGarbage(t *testing.T) {
	src := hh.New[uint64](hh.WithWeighted(), hh.WithCapacity(4), hh.WithWindow(8), hh.WithEpochs(2))
	for i := 0; i < 12; i++ {
		src.UpdateWeighted(uint64(i%5), 0.5+float64(i))
	}
	var buf bytes.Buffer
	if err := src.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("HHWIN2")) {
		t.Fatalf("windowed summary encoded as %q, want an HHWIN2 container", buf.Bytes()[:6])
	}
	raws := [][]byte{
		{'H', 'H', 'W', 'I', 'N', '2', 1, 1, 9},             // unknown window mode
		{'H', 'H', 'W', 'I', 'N', '2', 1, 1, 1, 0, 1, 0, 0}, // zero epochs
	}
	for cut := 0; cut < buf.Len(); cut++ {
		raws = append(raws, buf.Bytes()[:cut])
	}
	for _, raw := range raws {
		if _, err := hh.Decode[uint64](bytes.NewReader(raw)); !errors.Is(err, hh.ErrBadSummary) {
			t.Errorf("garbage %q: err = %v, want ErrBadSummary", raw, err)
		}
	}
}

func TestMergeWeightedBlobsPipeline(t *testing.T) {
	// The netflow scenario: two workers summarize byte-weighted shards,
	// ship blobs, the coordinator merges and keeps the tail guarantee.
	const m, k = 60, 8
	ups := stream.WeightedZipf(300, 1.2, 200000, 3, 19)
	truth := exact.New()
	a := hh.New[uint64](hh.WithWeighted(), hh.WithCapacity(m))
	b := hh.New[uint64](hh.WithWeighted(), hh.WithCapacity(m))
	for i, u := range ups {
		truth.UpdateWeighted(u.Item, u.Weight)
		if i%2 == 0 {
			a.UpdateWeighted(u.Item, u.Weight)
		} else {
			b.UpdateWeighted(u.Item, u.Weight)
		}
	}
	merged, err := hh.MergeSummaries(m, roundTrip(t, a), roundTrip(t, b))
	if err != nil {
		t.Fatal(err)
	}
	bound := hh.MergedGuarantee(hh.TailGuarantee{A: 1, B: 1}).Bound(m, k, truth.Res1(k))
	for i := uint64(0); i < 300; i++ {
		if d := math.Abs(truth.Freq(i) - merged.Estimate(i)); d > bound {
			t.Errorf("item %d: error %v exceeds bound %v", i, d, bound)
		}
		if lo, hi := merged.EstimateBounds(i); truth.Freq(i) < lo-1e-6 || truth.Freq(i) > hi+1e-6 {
			t.Errorf("item %d: true %v outside merged [%v, %v]", i, truth.Freq(i), lo, hi)
		}
	}
}

func TestWeightedCodecFrequentR(t *testing.T) {
	f := hh.New[uint64](hh.WithWeighted(), hh.WithAlgorithm(hh.AlgoFrequent), hh.WithCapacity(4))
	f.UpdateWeighted(7, 3.5)
	dec := roundTrip(t, f)
	if top := dec.Top(dec.Len()); len(top) != 1 || top[0].Count != 3.5 {
		t.Errorf("decoded entries = %+v", top)
	}
	if dec.Algorithm() != hh.AlgoFrequent {
		t.Errorf("decoded algo %v, want frequent", dec.Algorithm())
	}
}

func TestWeightedCodecRejectsNonFiniteAndNegative(t *testing.T) {
	// A +Inf or negative mass or entry count must die in the decoder as
	// ErrBadSummary, not survive into a merge's refeed and panic the
	// merging process (or hand consumers a negative mass). The single
	// 3.5-weight update makes both the mass field (first 3.5 bit
	// pattern) and the entry-count field (last) carry the same value, so
	// each can be corrupted independently.
	f := hh.New[uint64](hh.WithWeighted(), hh.WithAlgorithm(hh.AlgoFrequent), hh.WithCapacity(4))
	f.UpdateWeighted(7, 3.5)
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	var le, inf, neg [8]byte
	binary.LittleEndian.PutUint64(le[:], math.Float64bits(3.5))
	binary.LittleEndian.PutUint64(inf[:], math.Float64bits(math.Inf(1)))
	binary.LittleEndian.PutUint64(neg[:], math.Float64bits(-3.5))
	massOff := bytes.Index(buf.Bytes(), le[:])
	countOff := bytes.LastIndex(buf.Bytes(), le[:])
	if massOff < 0 || countOff <= massOff {
		t.Fatal("expected distinct mass and entry-count fields in encoding")
	}
	for _, tc := range []struct {
		name string
		off  int
		bits [8]byte
	}{
		{"inf mass", massOff, inf},
		{"negative mass", massOff, neg},
		{"inf entry count", countOff, inf},
		{"negative entry count", countOff, neg},
	} {
		raw := append([]byte(nil), buf.Bytes()...)
		copy(raw[tc.off:], tc.bits[:])
		if _, err := hh.Decode[uint64](bytes.NewReader(raw)); !errors.Is(err, hh.ErrBadSummary) {
			t.Errorf("%s: decoded without ErrBadSummary: %v", tc.name, err)
		}
	}
}
