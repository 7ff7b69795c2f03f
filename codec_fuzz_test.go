package heavyhitters_test

import (
	"bytes"
	"io"
	"testing"

	hh "repro"
)

// Decoders must never panic on arbitrary input; successful decodes of
// well-formed blobs must preserve the entries.

// FuzzDecodeSummary drives the route a consumer of blobs of unknown
// provenance takes (hhmerge, the registry's /merge): SniffBlob, then
// Decode at the sniffed key kind. Sniffing must never reject a blob
// that decodes, and a decoded blob must refuse the other key kind.
func FuzzDecodeSummary(f *testing.F) {
	flat := hh.New[string](hh.WithCapacity(4))
	win := hh.New[uint64](hh.WithCapacity(4), hh.WithWindow(8), hh.WithEpochs(2))
	for i, w := range []string{"a", "bb", "a", "", "ccc", "a"} {
		flat.Update(w)
		win.Update(uint64(i % 3))
	}
	for _, s := range []interface{ Encode(io.Writer) error }{flat, win} {
		var seed bytes.Buffer
		if err := s.Encode(&seed); err != nil {
			f.Fatal(err)
		}
		f.Add(seed.Bytes())
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, raw []byte) {
		_, errU := hh.Decode[uint64](bytes.NewReader(raw))
		_, errS := hh.Decode[string](bytes.NewReader(raw))
		info, ok := hh.SniffBlob(raw)
		if !ok {
			if errU == nil || errS == nil {
				t.Fatal("SniffBlob rejected a decodable blob")
			}
			return
		}
		if errU == nil && errS == nil {
			t.Fatal("blob decoded under both key kinds")
		}
		if info.StringKeys && errU == nil || !info.StringKeys && errS == nil {
			t.Fatalf("sniffed StringKeys=%v but decoded under the other kind", info.StringKeys)
		}
	})
}

func FuzzDecodeV2(f *testing.F) {
	src := hh.New[uint64](hh.WithCapacity(4))
	for _, x := range []uint64{1, 1, 2, 3, 4, 5} {
		src.Update(x)
	}
	var seed bytes.Buffer
	if err := src.Encode(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte("HHSUM2"))
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, raw []byte) {
		s, err := hh.Decode[uint64](bytes.NewReader(raw))
		if err != nil {
			return
		}
		// A successfully decoded summary must be queryable and
		// re-encodable without panicking, with sane invariants.
		if s.Capacity() < 1 {
			t.Fatal("non-positive capacity decoded")
		}
		for _, e := range s.Top(8) {
			lo, hi := s.EstimateBounds(e.Item)
			if lo > hi {
				t.Fatalf("inverted bounds [%v, %v]", lo, hi)
			}
		}
		s.HeavyHitters(0.5)
		if err := s.Encode(io.Discard); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
	})
}

func FuzzDecodeWindow(f *testing.F) {
	src := hh.New[uint64](hh.WithCapacity(4), hh.WithWindow(16), hh.WithEpochs(4))
	for i := 0; i < 40; i++ {
		src.Update(uint64(i % 7))
	}
	var seed bytes.Buffer
	if err := src.Encode(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte("HHWIN2"))
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, raw []byte) {
		s, err := hh.Decode[uint64](bytes.NewReader(raw))
		if err != nil {
			return
		}
		// A successfully decoded summary (flat or windowed — the fuzzer
		// mutates the magic freely) must survive queries, further
		// updates (rotation included) and a re-encode.
		if s.Capacity() < 1 {
			t.Fatal("non-positive capacity decoded")
		}
		if ws, ok := s.Window(); ok && (ws.Epochs < 1 || ws.Live < 1 || ws.Live > ws.Epochs) {
			t.Fatalf("inconsistent window state %+v", ws)
		}
		for _, e := range s.Top(8) {
			lo, hi := s.EstimateBounds(e.Item)
			if lo > hi {
				t.Fatalf("inverted bounds [%v, %v]", lo, hi)
			}
		}
		s.HeavyHitters(0.5)
		for i := 0; i < 50; i++ {
			s.Update(uint64(i))
		}
		if err := s.Encode(io.Discard); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
	})
}

// FuzzDecodeStringSummary is FuzzDecodeV2 for string keys, whose
// length-prefixed key reads are the decoder's only variable-size
// allocation.
func FuzzDecodeStringSummary(f *testing.F) {
	src := hh.New[string](hh.WithCapacity(4))
	for _, w := range []string{"a", "bb", "a", ""} {
		src.Update(w)
	}
	var seed bytes.Buffer
	if err := src.Encode(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("HHSUM2\x01\x01\x02"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		s, err := hh.Decode[string](bytes.NewReader(raw))
		if err != nil {
			return
		}
		if s.Capacity() < 1 {
			t.Fatal("non-positive capacity decoded")
		}
		for _, e := range s.Top(8) {
			lo, hi := s.EstimateBounds(e.Item)
			if lo > hi {
				t.Fatalf("inverted bounds [%v, %v]", lo, hi)
			}
		}
		s.HeavyHitters(0.5)
		s.Update("fresh")
		if err := s.Encode(io.Discard); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
	})
}
