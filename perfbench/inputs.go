package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"

	hh "repro"
	"repro/internal/registry"
	"repro/internal/stream"
	"repro/internal/wire"
)

// agentItems is the stream length behind the agent blob that
// serve-mixed-http pushes through /merge (and the traced run absorbs).
const agentItems = 100_000

// inputs is everything a run sends to the daemon, generated from the
// workload seed alone: the key universe, a pool of ingest batches
// (pre-encoded as hhwire frames whose body is also the binary /update
// body), the agent blob, and the streams behind the seeded data
// directory. The exact counts of all of them are kept so the final
// checkpoint can check the served answers.
type inputs struct {
	keys []string // the universe, indexed by zipf rank (0 = most frequent)
	ids  []uint32 // pool batch b holds ids[b*batchLen : (b+1)*batchLen]

	frames []byte // pool frames, concatenated
	offs   []int  // frame b is frames[offs[b]:offs[b+1]]

	blob      []byte   // encoded agent summary (HHSUM2)
	blobCount []uint32 // exact per-rank counts of the agent stream

	seedSnap, seedWAL []uint32 // data-dir streams: snapshotted, then WAL tail
	estKeys           []string // Estimate query keys, used round robin
}

func (in *inputs) batches() int            { return len(in.offs) - 1 }
func (in *inputs) frame(b int) []byte      { return in.frames[in.offs[b]:in.offs[b+1]] }
func (in *inputs) body(b int) []byte       { return in.frame(b)[wire.HeaderLen+len(summaryName):] }
func (in *inputs) batchIDs(b int) []uint32 { return in.ids[b*batchLen : (b+1)*batchLen] }

// appendKeys appends the key strings of ids to dst.
func (in *inputs) appendKeys(dst []string, ids []uint32) []string {
	for _, id := range ids {
		dst = append(dst, in.keys[id])
	}
	return dst
}

// splitmix64 derives independent sub-seeds from the workload seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func subSeed(seed uint64, tag uint64) uint64 { return splitmix64(seed ^ splitmix64(tag)) }

// genInputs builds a workload's inputs for seed, with a pool of pool
// batches.
func genInputs(w workload, seed uint64, pool int) (*inputs, error) {
	in := &inputs{keys: make([]string, universe)}
	// The seed reaches the key bytes too, so two seeds never share a
	// key universe.
	for r := range in.keys {
		in.keys[r] = fmt.Sprintf("u%05d-%08x", r, uint32(subSeed(seed, uint64(r)+1<<32)))
	}
	draw := func(tag uint64, n int) []uint32 {
		s := stream.ZipfSampled(universe, zipfAlpha, uint64(n), subSeed(seed, tag))
		out := make([]uint32, n)
		for i, v := range s {
			out[i] = uint32(v)
		}
		return out
	}
	in.ids = draw(1, pool*batchLen)
	in.seedSnap = draw(2, w.seedSnapItems)
	in.seedWAL = draw(3, w.seedWALItems)

	in.offs = make([]int, 0, pool+1)
	var body []byte
	for b := 0; b < pool; b++ {
		body = body[:0]
		for _, id := range in.batchIDs(b) {
			body = registry.AppendBinaryRecord(body, in.keys[id])
		}
		in.offs = append(in.offs, len(in.frames))
		in.frames = wire.AppendFrame(in.frames, summaryName, wire.FlagAck, body)
	}
	in.offs = append(in.offs, len(in.frames))

	agent, err := hh.NewFromSpec[string](hh.Spec{Capacity: capacity})
	if err != nil {
		return nil, err
	}
	in.blobCount = make([]uint32, universe)
	agentIDs := stream.ZipfSampled(universe, zipfAlpha, agentItems, subSeed(seed, 4))
	agentKeys := make([]string, 0, len(agentIDs))
	for _, id := range agentIDs {
		in.blobCount[id]++
		agentKeys = append(agentKeys, in.keys[id])
	}
	agent.UpdateBatch(agentKeys)
	var buf bytes.Buffer
	if err := agent.Encode(&buf); err != nil {
		return nil, fmt.Errorf("encoding agent blob: %w", err)
	}
	in.blob = buf.Bytes()

	// Half hot keys, half drawn uniformly over the universe.
	for i := 0; i < 32; i++ {
		in.estKeys = append(in.estKeys, in.keys[i], in.keys[subSeed(seed, uint64(5+i))%universe])
	}
	return in, nil
}

// seedCounts returns the exact per-rank counts of the data-dir
// streams, the mass the daemon recovers at boot.
func (in *inputs) seedCounts() []uint64 {
	c := make([]uint64, universe)
	for _, id := range in.seedSnap {
		c[id]++
	}
	for _, id := range in.seedWAL {
		c[id]++
	}
	return c
}

// buildDataDir writes the data directory a durable workload boots
// from, in process: registry.New, the snapshot stream ingested and
// committed by Registry.Snapshot, the tail stream ingested, then Halt —
// what a crash leaves behind, minus the torn tail. The fsync mode is
// not part of the persisted state, so seeding uses the cheapest one.
func buildDataDir(dir string, w workload, in *inputs) error {
	cfg := w.config(dir)
	cfg.Durability.Fsync = hh.FsyncRotate
	cfg.Durability.SnapshotInterval = "1h"
	reg, err := registry.New(cfg)
	if err != nil {
		return err
	}
	e, _ := reg.Get(summaryName)
	keys := make([]string, 0, batchLen)
	ingest := func(ids []uint32) error {
		for lo := 0; lo < len(ids); lo += batchLen {
			keys = in.appendKeys(keys[:0], ids[lo:min(lo+batchLen, len(ids))])
			if err := e.IngestBatch(keys); err != nil {
				return err
			}
		}
		return nil
	}
	if err := ingest(in.seedSnap); err != nil {
		_ = reg.Halt() // the ingest error is the one worth reporting
		return err
	}
	if len(in.seedSnap) > 0 {
		if _, err := reg.Snapshot(); err != nil {
			_ = reg.Halt()
			return err
		}
	}
	if err := ingest(in.seedWAL); err != nil {
		_ = reg.Halt()
		return err
	}
	return reg.Halt()
}

// copyDir copies the regular files of the tree at src to dst, so every
// boot gets a data directory of its own.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return fmt.Errorf("copyDir: %s is not a regular file", path)
		}
		return copyFile(path, target)
	})
}

func copyFile(src, dst string) error {
	r, err := os.Open(src)
	if err != nil {
		return err
	}
	defer r.Close()
	f, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
