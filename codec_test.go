package heavyhitters_test

import (
	"bytes"
	"errors"
	"math"
	"testing"

	hh "repro"
	"repro/internal/exact"
	"repro/internal/stream"
)

// roundTrip encodes s and decodes the blob with the same key type.
func roundTrip[K comparable](t *testing.T, s hh.Summary[K]) hh.Summary[K] {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := hh.Decode[K](&buf)
	if err != nil {
		t.Fatal(err)
	}
	return dec
}

// sameEntries reports whether two summaries store identical counters:
// the same items with the same counts and recorded errors (the order
// of tied counts is not part of the contract).
func sameEntries[K comparable](a, b hh.Summary[K]) bool {
	if a.Len() != b.Len() {
		return false
	}
	want := make(map[K]hh.WeightedEntry[K], a.Len())
	for e := range a.All() {
		want[e.Item] = e
	}
	for e := range b.All() {
		if want[e.Item] != e {
			return false
		}
	}
	return true
}

func TestSummaryCodecRoundTripUint64(t *testing.T) {
	// Six distinct items into four counters: evictions leave nonzero
	// per-entry errors, which must survive with the counts.
	ss := hh.New[uint64](hh.WithCapacity(4))
	for _, x := range []uint64{1, 1, 1, 2, 2, 3, 1 << 50, 4, 5} {
		ss.Update(x)
	}
	dec := roundTrip(t, ss)
	if dec.Capacity() != 4 || dec.N() != 9 {
		t.Errorf("decoded meta = m:%d N:%v, want 4/9", dec.Capacity(), dec.N())
	}
	if !sameEntries(ss, dec) {
		t.Errorf("entries = %v, want %v", dec.Top(dec.Len()), ss.Top(ss.Len()))
	}
}

func TestSummaryCodecRoundTripString(t *testing.T) {
	ss := hh.New[string](hh.WithCapacity(4))
	for _, w := range []string{"alpha", "beta", "alpha", "", "gamma-with-long-name"} {
		ss.Update(w)
	}
	dec := roundTrip(t, ss)
	if got := dec.Estimate("alpha"); got != 2 {
		t.Errorf("alpha count = %v, want 2", got)
	}
	found := false
	for _, e := range dec.Top(dec.Len()) {
		found = found || e.Item == ""
	}
	if !found {
		t.Error("empty-string key lost in round trip")
	}
}

func TestSummaryCodecEmptySummary(t *testing.T) {
	dec := roundTrip(t, hh.New[uint64](hh.WithAlgorithm(hh.AlgoFrequent), hh.WithCapacity(4)))
	if dec.Len() != 0 || dec.N() != 0 {
		t.Errorf("decoded Len %d, N %v; want empty", dec.Len(), dec.N())
	}
	if dec.Algorithm() != hh.AlgoFrequent {
		t.Errorf("decoded algo %v, want frequent", dec.Algorithm())
	}
}

func TestSummaryCodecRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   []byte("XXXXXXXXXXXX"),
		"v1 magic":    []byte("HHSUM1\x01\x08\x07\x00"),
		"truncated":   {'H', 'H', 'S', 'U', 'M', '2', 1},
		"wrong kind":  {'H', 'H', 'S', 'U', 'M', '2', 1, 0, 9, 4},
		"sketch algo": {'H', 'H', 'S', 'U', 'M', '2', byte(hh.AlgoCountMin), 0, 1, 4},
	}
	for name, raw := range cases {
		if _, err := hh.Decode[uint64](bytes.NewReader(raw)); !errors.Is(err, hh.ErrBadSummary) {
			t.Errorf("%s: err = %v, want ErrBadSummary", name, err)
		}
	}
}

func TestSummaryCodecKindMismatch(t *testing.T) {
	ss := hh.New[uint64](hh.WithCapacity(4))
	ss.Update(1)
	var buf bytes.Buffer
	if err := ss.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := hh.Decode[string](&buf); !errors.Is(err, hh.ErrBadSummary) {
		t.Errorf("string decoder accepted uint64 blob: %v", err)
	}
}

func TestSummaryCodecTruncatedEntries(t *testing.T) {
	ss := hh.New[uint64](hh.WithCapacity(4))
	for _, x := range []uint64{1, 2, 3} {
		ss.Update(x)
	}
	var buf bytes.Buffer
	if err := ss.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for cut := 1; cut < len(raw); cut++ {
		if _, err := hh.Decode[uint64](bytes.NewReader(raw[:cut])); !errors.Is(err, hh.ErrBadSummary) {
			t.Fatalf("blob truncated to %d/%d bytes: err = %v, want ErrBadSummary", cut, len(raw), err)
		}
	}
}

func TestMergeBlobsMatchesDirectMerge(t *testing.T) {
	// Ship-and-merge must agree with merging in-process.
	const n, total, m, k = 300, 60000, 100, 10
	s := stream.Zipf(n, 1.1, total, stream.OrderRandom, 17)
	truth := exact.FromStream(s)
	a := hh.New[uint64](hh.WithCapacity(m))
	b := hh.New[uint64](hh.WithCapacity(m))
	for i, x := range s {
		if i%2 == 0 {
			a.Update(x)
		} else {
			b.Update(x)
		}
	}
	// Merging at 2m never evicts during the refeed, so the result does
	// not depend on the order tied counters are replayed in, and the
	// two routes must agree exactly.
	viaWire, err := hh.MergeSummaries(2*m, roundTrip(t, a), roundTrip(t, b))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := hh.MergeSummaries(2*m, a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < n; i++ {
		if viaWire.Estimate(i) != direct.Estimate(i) {
			t.Fatalf("item %d: wire merge %v != direct merge %v", i, viaWire.Estimate(i), direct.Estimate(i))
		}
		// A decoded input charges its producer's Δ to absent items on
		// top of its own minimum counter, so shipped upper bounds may be
		// looser than in-process ones, never tighter.
		wlo, whi := viaWire.EstimateBounds(i)
		dlo, dhi := direct.EstimateBounds(i)
		if wlo != dlo || whi < dhi {
			t.Fatalf("item %d: wire bounds [%v, %v] vs direct [%v, %v]", i, wlo, whi, dlo, dhi)
		}
		if f := truth.Freq(i); f < wlo || f > whi {
			t.Fatalf("item %d: true %v outside wire bounds [%v, %v]", i, f, wlo, whi)
		}
	}
	// And the merged result still honours the (3,2) bound.
	bound := hh.MergedGuarantee(hh.TailGuarantee{A: 1, B: 1}).Bound(m, k, truth.Res1(k))
	for i := uint64(0); i < n; i++ {
		if d := math.Abs(truth.Freq(i) - viaWire.Estimate(i)); d > bound {
			t.Errorf("item %d: error %v exceeds bound %v", i, d, bound)
		}
	}
}
