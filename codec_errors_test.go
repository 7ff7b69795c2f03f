package heavyhitters_test

import (
	"bytes"
	"errors"
	"strconv"
	"testing"

	hh "repro"
)

// failingWriter errors after accepting n bytes, exercising every write
// error path of the encoder.
type failingWriter struct {
	remaining int
}

var errSink = errors.New("sink failed")

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) > w.remaining {
		n := w.remaining
		w.remaining = 0
		return n, errSink
	}
	w.remaining -= len(p)
	return len(p), nil
}

// encodeFailsBelowSize checks Encode against every write budget short
// of the full blob (each must surface the sink's error) and the exact
// budget (which must succeed).
func encodeFailsBelowSize[K comparable](t *testing.T, s hh.Summary[K]) {
	t.Helper()
	var full bytes.Buffer
	if err := s.Encode(&full); err != nil {
		t.Fatal(err)
	}
	size := full.Len()
	for budget := 0; budget < size; budget++ {
		if err := s.Encode(&failingWriter{remaining: budget}); !errors.Is(err, errSink) {
			t.Errorf("budget %d/%d: err = %v, want the sink's error", budget, size, err)
		}
	}
	if err := s.Encode(&failingWriter{remaining: size}); err != nil {
		t.Errorf("exact budget failed: %v", err)
	}
}

func TestEncodeSummaryPropagatesWriteErrors(t *testing.T) {
	s := hh.New[uint64](hh.WithCapacity(4))
	for _, x := range []uint64{1, 1, 2, 3} {
		s.Update(x)
	}
	encodeFailsBelowSize(t, s)
}

// TestEncodeStringSummaryPropagatesWriteErrors sweeps the windowed
// container, string-keyed: its per-epoch frames are staged in a buffer
// before they reach the sink.
func TestEncodeStringSummaryPropagatesWriteErrors(t *testing.T) {
	s := hh.New[string](hh.WithCapacity(4), hh.WithWindow(8), hh.WithEpochs(2))
	for i := 0; i < 6; i++ {
		s.Update("a-reasonably-long-key-to-cross-buffer-boundaries")
		s.Update("k" + strconv.Itoa(i))
	}
	if _, ok := s.Window(); !ok {
		t.Fatal("not a windowed summary")
	}
	encodeFailsBelowSize(t, s)
}
