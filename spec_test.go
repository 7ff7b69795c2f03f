package heavyhitters_test

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	hh "repro"
)

// TestSpecOptionsRoundTrip checks the config-file path builds the same
// summary the equivalent hand-written options build.
func TestSpecOptionsRoundTrip(t *testing.T) {
	raw := []byte(`{"algorithm": "frequent", "capacity": 64, "shards": 2, "window": 4096, "epochs": 4, "seed": 9}`)
	var sp hh.Spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		t.Fatal(err)
	}
	fromSpec, err := hh.NewFromSpec[string](sp)
	if err != nil {
		t.Fatal(err)
	}
	ref := hh.New[string](
		hh.WithAlgorithm(hh.AlgoFrequent), hh.WithCapacity(64), hh.WithShards(2),
		hh.WithWindow(4096), hh.WithEpochs(4), hh.WithSeed(9),
	)
	keys := make([]string, 0, 3000)
	for i := 0; i < 3000; i++ {
		keys = append(keys, string(rune('a'+i%7)))
	}
	fromSpec.UpdateBatch(keys)
	ref.UpdateBatch(keys)
	if fromSpec.Algorithm() != ref.Algorithm() || fromSpec.Capacity() != ref.Capacity() {
		t.Fatalf("spec summary (%v, %d) != option summary (%v, %d)",
			fromSpec.Algorithm(), fromSpec.Capacity(), ref.Algorithm(), ref.Capacity())
	}
	if fromSpec.N() != ref.N() {
		t.Errorf("N: %v != %v", fromSpec.N(), ref.N())
	}
	ws, ok := fromSpec.Window()
	if !ok || ws.Epochs != 4 {
		t.Errorf("windowed spec summary reports Window() = %+v, %v", ws, ok)
	}
	for _, e := range ref.Top(7) {
		if got := fromSpec.Estimate(e.Item); got != e.Count {
			t.Errorf("estimate(%q) = %v, want %v", e.Item, got, e.Count)
		}
	}
}

func TestSpecTickWindowAndErrors(t *testing.T) {
	s, err := hh.NewFromSpec[uint64](hh.Spec{TickWindow: "250ms", Epochs: 5, Capacity: 32})
	if err != nil {
		t.Fatalf("tick-window spec: %v", err)
	}
	if ws, ok := s.Window(); !ok || ws.Tick != 250*time.Millisecond || ws.Epochs != 5 {
		t.Errorf("tick window state = %+v, %v", ws, ok)
	}

	for name, sp := range map[string]hh.Spec{
		"unknown algorithm":   {Algorithm: "nope"},
		"bad tick duration":   {TickWindow: "yesterday"},
		"negative capacity":   {Capacity: -1},
		"capacity and budget": {Capacity: 10, Epsilon: 0.1},
		"decay on sketch":     {Algorithm: "countmin", Decay: 0.1},
		"concurrent sketch":   {Algorithm: "countsketch", Concurrent: true},
	} {
		if _, err := hh.NewFromSpec[uint64](sp); err == nil {
			t.Errorf("%s: NewFromSpec accepted %+v", name, sp)
		}
	}
}

// TestSpecRejectsUndecodableCapacity: a spec whose summary could encode
// more counters than Decode accepts (2^24) must fail at construction —
// otherwise a daemon could create a summary it can neither snapshot-
// recover nor ship to hhmerge. Every rejected case is refused before
// any structure is built; the first is also cheap to build, so on code
// without the check the test fails there without allocating a
// cap-sized summary.
func TestSpecRejectsUndecodableCapacity(t *testing.T) {
	const limit = 1 << 24 // the decoder's capacity limit
	for _, sp := range []hh.Spec{
		{Algorithm: "lossycounting", Capacity: limit + 1},
		{Capacity: limit + 1},
		{Weighted: true, Algorithm: "frequent", Capacity: limit + 1},
		{Capacity: 4194304, Shards: 8, Concurrent: true},
		{Epsilon: 1.0 / (limit * 2)},
		{Epsilon: 1.0 / (limit / 4), Shards: 8},
		{Capacity: limit / 16, Shards: 4, Window: 1 << 30, Epochs: 8},
	} {
		if _, err := hh.NewFromSpec[string](sp); err == nil {
			t.Fatalf("NewFromSpec accepted %+v, whose encoding Decode rejects", sp)
		}
	}
	// At the limit the blob still decodes (LOSSYCOUNTING does not
	// pre-size its table, so this builds nothing cap-sized).
	s, err := hh.NewFromSpec[string](hh.Spec{Algorithm: "lossycounting", Capacity: limit})
	if err != nil {
		t.Fatal(err)
	}
	s.Update("a")
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := hh.Decode[string](&buf); err != nil {
		t.Errorf("blob at the capacity limit: %v", err)
	}
}

// TestSniffBlob covers the header sniffing consumers use to route
// unknown blobs to the right Decode instantiation.
func TestSniffBlob(t *testing.T) {
	var flatU, flatS, winS bytes.Buffer
	u := hh.New[uint64](hh.WithCapacity(16), hh.WithAlgorithm(hh.AlgoFrequent))
	u.Update(1)
	if err := u.Encode(&flatU); err != nil {
		t.Fatal(err)
	}
	s := hh.New[string](hh.WithCapacity(16))
	s.Update("a")
	if err := s.Encode(&flatS); err != nil {
		t.Fatal(err)
	}
	w := hh.New[string](hh.WithCapacity(16), hh.WithWindow(100))
	w.Update("b")
	if err := w.Encode(&winS); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		blob []byte
		want hh.BlobInfo
	}{
		{"flat uint64", flatU.Bytes(), hh.BlobInfo{Algo: hh.AlgoFrequent}},
		{"flat string", flatS.Bytes(), hh.BlobInfo{Algo: hh.AlgoSpaceSaving, StringKeys: true}},
		{"windowed string", winS.Bytes(), hh.BlobInfo{Algo: hh.AlgoSpaceSaving, Windowed: true, StringKeys: true}},
	} {
		info, ok := hh.SniffBlob(tc.blob)
		if !ok || info != tc.want {
			t.Errorf("%s: SniffBlob = %+v, %v; want %+v", tc.name, info, ok, tc.want)
		}
	}
	if _, ok := hh.SniffBlob([]byte("HHSUM")); ok {
		t.Error("SniffBlob accepted a short prefix")
	}
	if _, ok := hh.SniffBlob([]byte("NOTMAGIC1")); ok {
		t.Error("SniffBlob accepted a foreign magic")
	}
	// v2 magic with an unknown key kind byte must be rejected.
	bad := append([]byte{}, flatS.Bytes()[:9]...)
	bad[8] = 0x7f
	if _, ok := hh.SniffBlob(bad); ok {
		t.Error("SniffBlob accepted an unknown key kind")
	}
}
