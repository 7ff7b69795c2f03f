package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"io/fs"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/registry"
)

// small shrinks a workload's data-directory streams for tests.
func small(w workload) workload {
	w.seedSnapItems = min(w.seedSnapItems, 4*batchLen)
	w.seedWALItems = min(w.seedWALItems, 4*batchLen)
	return w
}

// digest hashes every input the daemon would receive for (w, seed):
// the frames (whose bodies are also the HTTP bodies), the agent blob,
// the Estimate keys, and the bytes of the seeded data directory. The
// snapshot manifest is skipped: it records its wall-clock write time.
func digest(t *testing.T, w workload, seed uint64) [32]byte {
	t.Helper()
	in, err := genInputs(w, seed, 16)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(in.frames)
	h.Write(in.blob)
	for _, k := range in.estKeys {
		h.Write([]byte(k))
	}
	for _, ids := range [][]uint32{in.seedSnap, in.seedWAL} {
		for _, id := range ids {
			h.Write(binary.LittleEndian.AppendUint32(nil, id))
		}
	}
	if w.durable() {
		dir := t.TempDir()
		if err := buildDataDir(dir, w, in); err != nil {
			t.Fatal(err)
		}
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || d.Name() == "MANIFEST.json" {
				return err
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			rel, _ := filepath.Rel(dir, path)
			h.Write([]byte(rel))
			h.Write(data)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}

func TestInputsReproducibleFromSeed(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			w := small(w)
			a, b, c := digest(t, w, 7), digest(t, w, 7), digest(t, w, 8)
			if a != b {
				t.Errorf("seed 7 produced different inputs on two generations")
			}
			if a == c {
				t.Errorf("seeds 7 and 8 produced identical inputs")
			}
		})
	}
}

// TestCheckpointCatchesWrongCounts runs the final checkpoint against an
// in-process registry: it must pass on the true counts and report a
// violation once the oracle disagrees with the served state.
func TestCheckpointCatchesWrongCounts(t *testing.T) {
	w := workloads[0]
	in, err := genInputs(w, 3, 64)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := registry.New(w.config(""))
	if err != nil {
		t.Fatal(err)
	}
	e, _ := reg.Get(summaryName)
	acked := make([]uint32, in.batches())
	for b := range acked {
		keys, err := registry.AppendBinaryKeys(nil, in.body(b))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.IngestBatch(keys); err != nil {
			t.Fatal(err)
		}
		acked[b] = 1
	}
	srv := httptest.NewServer(registry.NewServer(reg, 0))
	defer srv.Close()
	c := newHTTPClient()

	exact := exactCounts(in, make([]uint64, universe), acked, 0)
	if r := checkpoint(c, srv.URL, in, exact); len(r.violations) != 0 || r.ops.failed != 0 {
		t.Fatalf("checkpoint on true counts: %v (%d failed)", r.violations, r.ops.failed)
	}
	// Move one occurrence from the hottest key to the coldest: N still
	// matches, but the hottest key's exact count leaves its interval.
	wrong := slices.Clone(exact)
	wrong[0]--
	wrong[universe-1]++
	if r := checkpoint(c, srv.URL, in, wrong); len(r.violations) == 0 {
		t.Fatal("checkpoint accepted a count outside the served interval")
	}
	// One extra acknowledged batch: the served N no longer matches.
	acked[0]++
	if r := checkpoint(c, srv.URL, in, exactCounts(in, make([]uint64, universe), acked, 0)); len(r.violations) == 0 {
		t.Fatal("checkpoint accepted a served N that misses acknowledged mass")
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metrics
// and workloads this command prints in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, want)
	}
	e2e := e2eMetrics(&e2eResult{})
	if len(spec.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json has %d end_to_end metrics, the command prints %d", len(spec.EndToEnd), len(e2e))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end_to_end %s (%s): printed as %+v, %v", m.Name, m.Unit, got, ok)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per_layer metrics, the command prints %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] %s (%s), code %s (%s)", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}
