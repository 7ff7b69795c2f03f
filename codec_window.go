package heavyhitters

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"repro/internal/spacesaving"
)

// Windowed v2 wire format: the container Summary.Encode writes for an
// (unsharded) epoch-ring window, so a coordinator can ship a sliding-
// window summary and keep both querying and *rotating* it after decode:
//
//	magic "HHWIN2" | algo | key kind | mode (1 = count, 2 = tick) |
//	epochs uvarint | epochLen uvarint (count) / epoch nanos (tick) |
//	current-epoch items uvarint | live uvarint |
//	live × { frame length uvarint | flat "HHSUM2" frame }
//
// Epochs travel oldest → newest as standard flat v2 frames, each
// prefixed with its byte length — the offsets that let a reader index
// or skip epochs without parsing them. Decoding reconstructs a live
// ring: the decoded epochs fill the first slots (each backed by a
// weighted SPACESAVINGR reconstruction, exactly like a flat decode),
// the remaining slots start empty, and rotation resumes where the
// producer left off. Tick windows restart their epoch clock at decode
// time (wall-clock epochs cannot meaningfully survive the transfer
// latency); count windows resume exactly.

var windowMagicV2 = [6]byte{'H', 'H', 'W', 'I', 'N', '2'}

const (
	windowModeCount byte = 1
	windowModeTick  byte = 2
)

// maxWindowEpochs bounds the decoded ring size: a real deployment uses
// a handful of epochs (8 is the default; hundreds would already be an
// odd trade), so anything larger is a malformed or malicious frame.
const maxWindowEpochs = 4096

// encodeWindow writes the windowed container for wb's current ring.
func encodeWindow[K comparable](w io.Writer, algo Algo, kind byte, wb *windowBackend[K]) error {
	wb.sync()
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(windowMagicV2[:]); err != nil {
		return err
	}
	mode := windowModeCount
	granularity := wb.epochLen
	if wb.tick > 0 {
		mode = windowModeTick
		granularity = uint64(wb.tick.Nanoseconds())
	}
	for _, b := range []byte{byte(algo), kind, mode} {
		if err := bw.WriteByte(b); err != nil {
			return err
		}
	}
	for _, v := range []uint64{uint64(len(wb.ring)), granularity, wb.curItems, uint64(wb.live)} {
		if err := writeUvarint(bw, v); err != nil {
			return err
		}
	}
	// Epochs oldest → newest: live slots ending at cur.
	var frame bytes.Buffer
	fw := bufio.NewWriter(&frame)
	for i := 0; i < wb.live; i++ {
		slot := (wb.cur - wb.live + 1 + i + len(wb.ring)) % len(wb.ring)
		frame.Reset()
		fw.Reset(&frame)
		if err := encodeFlatFrame(fw, algo, kind, wb.ring[slot]); err != nil {
			return err
		}
		if err := fw.Flush(); err != nil {
			return err
		}
		if err := writeUvarint(bw, uint64(frame.Len())); err != nil {
			return err
		}
		if _, err := bw.Write(frame.Bytes()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// decodeWindowBody reads the windowed container after its magic and
// rebuilds a live epoch ring.
//
//hh:nopanic
func decodeWindowBody[K comparable](br *bufio.Reader, wantKind byte) (Summary[K], error) {
	var hdr [3]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: window header: %v", ErrBadSummary, err)
	}
	algo, kind, mode := Algo(hdr[0]), hdr[1], hdr[2]
	if !algo.deterministic() {
		return nil, fmt.Errorf("%w: algorithm %v has no portable state", ErrBadSummary, algo)
	}
	if kind != wantKind {
		return nil, fmt.Errorf("%w: key kind %d, want %d", ErrBadSummary, kind, wantKind)
	}
	if mode != windowModeCount && mode != windowModeTick {
		return nil, fmt.Errorf("%w: unknown window mode %d", ErrBadSummary, mode)
	}
	var fields [4]uint64
	for i, name := range []string{"epoch count", "epoch granularity", "current-epoch items", "live epochs"} {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: %s: %v", ErrBadSummary, name, err)
		}
		//hh:checked i ranges over a 4-element name list; fields is a 4-element array
		fields[i] = v
	}
	epochs, granularity, curItems, live := fields[0], fields[1], fields[2], fields[3]
	if epochs < 1 || epochs > maxWindowEpochs {
		return nil, fmt.Errorf("%w: unreasonable epoch count %d", ErrBadSummary, epochs)
	}
	if live < 1 || live > epochs {
		return nil, fmt.Errorf("%w: live epochs %d outside [1, %d]", ErrBadSummary, live, epochs)
	}
	if granularity < 1 {
		return nil, fmt.Errorf("%w: zero epoch granularity", ErrBadSummary)
	}
	if mode == windowModeCount && curItems > granularity {
		return nil, fmt.Errorf("%w: current epoch holds %d items, epoch length is %d", ErrBadSummary, curItems, granularity)
	}
	if mode == windowModeTick && granularity > uint64(1<<62) {
		return nil, fmt.Errorf("%w: unreasonable epoch duration", ErrBadSummary)
	}
	b := &windowBackend[K]{
		ring: make([]leafBackend[K], epochs),
		live: int(live),
		cur:  int(live) - 1,
		agg:  make(map[K]int),
	}
	if mode == windowModeCount {
		b.epochLen = granularity
		b.curItems = curItems
	} else {
		b.tick = time.Duration(granularity)
		b.clock = time.Now
		b.epochStart = b.clock()
	}
	var g TailGuarantee
	hasG := false
	capacity := 1
	for i := 0; i < int(live); i++ {
		frameLen, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: epoch %d frame length: %v", ErrBadSummary, i, err)
		}
		if frameLen > 1<<30 {
			return nil, fmt.Errorf("%w: unreasonable epoch frame length %d", ErrBadSummary, frameLen)
		}
		sub := bufio.NewReader(io.LimitReader(br, int64(frameLen)))
		var magic [6]byte
		if _, err := io.ReadFull(sub, magic[:]); err != nil {
			return nil, fmt.Errorf("%w: epoch %d header: %v", ErrBadSummary, i, err)
		}
		if magic != summaryMagicV2 {
			return nil, fmt.Errorf("%w: epoch %d: bad frame magic", ErrBadSummary, i)
		}
		epAlgo, be, err := decodeFlatBody[K](sub, wantKind)
		if err != nil {
			return nil, fmt.Errorf("epoch %d: %w", i, err)
		}
		if epAlgo != algo {
			return nil, fmt.Errorf("%w: epoch %d algorithm %v, window is %v", ErrBadSummary, i, epAlgo, algo)
		}
		// The sub-frame must be fully consumed: trailing bytes inside the
		// declared length would silently desynchronize the next epoch.
		if _, err := sub.ReadByte(); err != io.EOF {
			return nil, fmt.Errorf("%w: epoch %d: trailing bytes in frame", ErrBadSummary, i)
		}
		//hh:checked i < live ≤ epochs == len(b.ring), all validated above
		b.ring[i] = be
		if c := be.capacity(); c > capacity {
			capacity = c
		}
		if eg, ok := be.guarantee(); ok && !hasG {
			g, hasG = eg, true
		}
	}
	// The empty slots the ring will rotate into: same capacity and
	// guarantee as the decoded epochs, so the window keeps advertising
	// one consistent bound as it advances past the transferred state.
	for i := int(live); i < int(epochs); i++ {
		//hh:checked i < epochs == len(b.ring); capacity comes from a decoded epoch, ≥ 1 by decodeFlatBody validation
		b.ring[i] = &weightedBackend[K]{ssr: spacesaving.NewRSized[K](capacity, 0), g: g, hasG: hasG}
	}
	return &summary[K]{algo: algo, be: b}, nil
}
