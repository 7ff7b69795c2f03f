package registry_test

// Tests drive the registry through its real HTTP surface (httptest on
// top of registry.NewServer) using the typed client package — the same
// two layers the hhserverd binary mounts — so every assertion here
// covers the wire formats, the handler plumbing and the client
// round-trip at once.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	hh "repro"
	"repro/client"
	"repro/internal/registry"
	"repro/internal/stream"
)

func newTestServer(t *testing.T, cfg registry.Config) (*httptest.Server, *registry.Registry) {
	t.Helper()
	reg, err := registry.New(cfg)
	if err != nil {
		t.Fatalf("registry.New: %v", err)
	}
	ts := httptest.NewServer(registry.NewServer(reg, cfg.MaxBodyBytes))
	t.Cleanup(ts.Close)
	return ts, reg
}

// zipfKeys renders a seeded Zipf stream as decimal string keys.
func zipfKeys(universe int, n uint64, seed uint64) []string {
	raw := stream.Zipf(universe, 1.1, n, stream.OrderRandom, seed)
	keys := make([]string, len(raw))
	for i, x := range raw {
		keys[i] = fmt.Sprintf("item-%d", x)
	}
	return keys
}

func TestIngestAndQuery(t *testing.T) {
	ts, _ := newTestServer(t, registry.Config{
		Summaries: map[string]hh.Spec{
			"words": {Capacity: 256, Shards: 4},
		},
	})
	ctx := context.Background()
	c := client.New(ts.URL, "words")
	keys := zipfKeys(2000, 40_000, 7)

	// Reference: the same stream through an in-process summary with the
	// same per-shard budget (deterministic algorithms: the HTTP hop must
	// not change a single counter).
	ref := hh.New[string](hh.WithCapacity(256), hh.WithShards(4))
	for lo := 0; lo < len(keys); lo += 4096 {
		part := keys[lo:min(lo+4096, len(keys))]
		n, err := c.Push(ctx, part)
		if err != nil {
			t.Fatalf("Push: %v", err)
		}
		if n != len(part) {
			t.Fatalf("Push acknowledged %d of %d keys", n, len(part))
		}
		ref.UpdateBatch(part)
	}

	top, err := c.Top(ctx, 10)
	if err != nil {
		t.Fatalf("Top: %v", err)
	}
	if top.N != float64(len(keys)) {
		t.Errorf("served N = %.0f, want %d", top.N, len(keys))
	}
	refTop := ref.Top(10)
	if len(top.Results) != len(refTop) {
		t.Fatalf("Top returned %d results, want %d", len(top.Results), len(refTop))
	}
	for i, r := range top.Results {
		lo, hi := ref.EstimateBounds(r.Item)
		if r.Count != refTop[i].Count || r.Lo != lo || r.Hi != hi {
			t.Errorf("top[%d] = %+v, want count %.1f bounds [%.1f, %.1f]",
				i, r, refTop[i].Count, lo, hi)
		}
	}

	est, err := c.Estimate(ctx, top.Results[0].Item)
	if err != nil {
		t.Fatalf("Estimate: %v", err)
	}
	if est.Estimate != ref.Estimate(est.Key) {
		t.Errorf("estimate %.1f, want %.1f", est.Estimate, ref.Estimate(est.Key))
	}
	if est.Guaranteed != (est.Lo == est.Hi) {
		t.Errorf("guaranteed flag inconsistent with bounds: %+v", est)
	}

	hits, err := c.HeavyHitters(ctx, 0.02)
	if err != nil {
		t.Fatalf("HeavyHitters: %v", err)
	}
	refHits := ref.HeavyHitters(0.02)
	if len(hits.Results) != len(refHits) {
		t.Fatalf("HeavyHitters returned %d results, want %d", len(hits.Results), len(refHits))
	}
	for i, h := range hits.Results {
		want := refHits[i]
		if h.Item != want.Item || h.Lo != want.Lo || h.Hi != want.Hi || h.Guaranteed != want.Guaranteed {
			t.Errorf("hh[%d] = %+v, want %+v", i, h, want)
		}
	}
}

// TestMergeMatchesInProcess pins the acceptance criterion: a blob
// pushed via /merge then queried via /heavyhitters returns byte-equal
// certain bounds to an in-process MergeSummaries of the same inputs.
func TestMergeMatchesInProcess(t *testing.T) {
	const m = 200
	ts, _ := newTestServer(t, registry.Config{
		Summaries: map[string]hh.Spec{"agg": {Capacity: m}},
	})
	ctx := context.Background()
	c := client.New(ts.URL, "agg")

	// Two agents summarize disjoint streams and encode their state.
	var blobs [][]byte
	var decoded []hh.Summary[string]
	for seed := uint64(1); seed <= 2; seed++ {
		agent := hh.New[string](hh.WithCapacity(m), hh.WithAlgorithm(hh.AlgoFrequent))
		agent.UpdateBatch(zipfKeys(3000, 30_000, seed))
		var buf bytes.Buffer
		if err := agent.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, buf.Bytes())
		d, err := hh.Decode[string](bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		decoded = append(decoded, d)
	}
	for _, b := range blobs {
		if _, err := c.MergeBlob(ctx, bytes.NewReader(b)); err != nil {
			t.Fatalf("MergeBlob: %v", err)
		}
	}

	ref, err := hh.MergeSummaries(m, decoded...)
	if err != nil {
		t.Fatal(err)
	}

	const phi = 0.01
	got, err := c.HeavyHitters(ctx, phi)
	if err != nil {
		t.Fatalf("HeavyHitters: %v", err)
	}
	if got.N != ref.N() {
		t.Errorf("served N = %v, want in-process merged N %v", got.N, ref.N())
	}
	want := ref.HeavyHitters(phi)
	if len(got.Results) != len(want) {
		t.Fatalf("server returned %d heavy hitters, in-process merge %d", len(got.Results), len(want))
	}
	for i, h := range got.Results {
		w := want[i]
		if h.Item != w.Item || h.Count != w.Count || h.Lo != w.Lo || h.Hi != w.Hi || h.Guaranteed != w.Guaranteed {
			t.Errorf("heavyhitters[%d]: server %+v != in-process %+v", i, h, w)
		}
	}

	// The snapshot endpoint must round-trip the same view: decoding
	// /encode yields the in-process merge's mass and per-item bounds.
	snap, err := c.Snapshot(ctx)
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if snap.N() != ref.N() {
		t.Errorf("snapshot N = %v, want %v", snap.N(), ref.N())
	}
	for _, e := range ref.Top(20) {
		rlo, rhi := ref.EstimateBounds(e.Item)
		slo, shi := snap.EstimateBounds(e.Item)
		if slo != rlo || shi != rhi {
			t.Errorf("snapshot bounds of %q = [%v, %v], want [%v, %v]", e.Item, slo, shi, rlo, rhi)
		}
	}
}

// TestMergePlusLiveIngest checks the union view: live /update traffic
// and a pushed blob answer as one merged stream with certain bounds.
func TestMergePlusLiveIngest(t *testing.T) {
	const m = 128
	ts, _ := newTestServer(t, registry.Config{
		Summaries: map[string]hh.Spec{"union": {Capacity: m}},
	})
	ctx := context.Background()
	c := client.New(ts.URL, "union")

	truth := make(map[string]float64)
	liveKeys := zipfKeys(500, 20_000, 3)
	for _, k := range liveKeys {
		truth[k]++
	}
	if _, err := c.Push(ctx, liveKeys); err != nil {
		t.Fatal(err)
	}

	agent := hh.New[string](hh.WithCapacity(m))
	agentKeys := zipfKeys(500, 15_000, 4)
	for _, k := range agentKeys {
		truth[k]++
	}
	agent.UpdateBatch(agentKeys)
	if _, err := c.MergeSummary(ctx, agent); err != nil {
		t.Fatal(err)
	}

	top, err := c.Top(ctx, 10)
	if err != nil {
		t.Fatal(err)
	}
	wantN := float64(len(liveKeys) + len(agentKeys))
	if top.N != wantN {
		t.Errorf("union N = %.0f, want %.0f", top.N, wantN)
	}
	for _, r := range top.Results {
		if f := truth[r.Item]; f < r.Lo || f > r.Hi {
			t.Errorf("true count %v of %q escapes served bounds [%v, %v]", f, r.Item, r.Lo, r.Hi)
		}
	}
}

func TestBinaryIngest(t *testing.T) {
	ts, reg := newTestServer(t, registry.Config{
		Summaries: map[string]hh.Spec{"raw": {Capacity: 64}},
	})
	ctx := context.Background()
	c := client.New(ts.URL, "raw")
	keys := []string{"plain", "with\nnewline", "", "with\nnewline", "plain", "plain"}
	n, err := c.PushBinary(ctx, keys)
	if err != nil {
		t.Fatalf("PushBinary: %v", err)
	}
	if n != len(keys) {
		t.Fatalf("acknowledged %d keys, want %d", n, len(keys))
	}
	e, _ := reg.Get("raw")
	if got := e.Live().Estimate("with\nnewline"); got != 2 {
		t.Errorf("newline key estimate = %v, want 2", got)
	}
	if got := e.Live().Estimate(""); got != 1 {
		t.Errorf("empty key estimate = %v, want 1", got)
	}
	if got := e.Live().N(); got != float64(len(keys)) {
		t.Errorf("N = %v, want %d", got, len(keys))
	}
	// Push falls back to the binary format for keys the text format
	// cannot carry faithfully, so these round-trip byte-exact too.
	if _, err := c.Push(ctx, []string{"cr-suffix\r", "also\nhere", ""}); err != nil {
		t.Fatalf("Push with text-unsafe keys: %v", err)
	}
	if got := e.Live().Estimate("cr-suffix\r"); got != 1 {
		t.Errorf(`estimate("cr-suffix\r") = %v, want 1`, got)
	}
	if got := e.Live().Estimate("also\nhere"); got != 1 {
		t.Errorf("newline key via Push = %v, want 1", got)
	}
}

// TestMalformedBatchRejected: a bad frame errors without ingesting
// anything — the no-corruption half of the ingest wire contract.
func TestMalformedBatchRejected(t *testing.T) {
	ts, reg := newTestServer(t, registry.Config{
		Summaries: map[string]hh.Spec{"s": {Capacity: 64}},
	})
	e, _ := reg.Get("s")
	post := func(body []byte, ct string) int {
		resp, err := http.Post(ts.URL+"/v1/s/update", ct, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	// Truncated uvarint: a length prefix that never completes.
	if code := post([]byte{0xff}, registry.ContentTypeBinary); code != http.StatusBadRequest {
		t.Errorf("truncated uvarint: status %d, want 400", code)
	}
	// Length past the end of the body.
	if code := post([]byte{0x10, 'a', 'b'}, registry.ContentTypeBinary); code != http.StatusBadRequest {
		t.Errorf("overlong record: status %d, want 400", code)
	}
	// A valid prefix followed by garbage must not ingest the prefix.
	frame := registry.AppendBinaryRecord(nil, "good-key")
	frame = append(frame, 0xff)
	if code := post(frame, registry.ContentTypeBinary); code != http.StatusBadRequest {
		t.Errorf("valid prefix + garbage: status %d, want 400", code)
	}
	if n := e.Live().N(); n != 0 {
		t.Errorf("rejected batches ingested mass %v, want 0", n)
	}
	if got := e.Live().Estimate("good-key"); got != 0 {
		t.Errorf("partial batch leaked into the summary: estimate %v", got)
	}
}

func TestMergeRejectsBadBlobs(t *testing.T) {
	ts, reg := newTestServer(t, registry.Config{
		Summaries: map[string]hh.Spec{
			"det":    {Capacity: 64},
			"sketch": {Algorithm: "countmin", Capacity: 64},
		},
	})
	post := func(name string, body []byte) int {
		resp, err := http.Post(ts.URL+"/v1/"+name+"/merge", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("det", []byte("not a blob")); code != http.StatusBadRequest {
		t.Errorf("garbage blob: status %d, want 400", code)
	}
	// A uint64-keyed blob fails the string-keyed decoder's kind check.
	u := hh.New[uint64](hh.WithCapacity(32))
	u.Update(7)
	var buf bytes.Buffer
	if err := u.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if code := post("det", buf.Bytes()); code != http.StatusBadRequest {
		t.Errorf("uint64-keyed blob: status %d, want 400", code)
	}
	// Sketch-backed summaries cannot absorb merges at all.
	s := hh.New[string](hh.WithCapacity(32))
	s.Update("x")
	buf.Reset()
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if code := post("sketch", buf.Bytes()); code != http.StatusUnprocessableEntity {
		t.Errorf("merge into sketch: status %d, want 422", code)
	}
	e, _ := reg.Get("det")
	if n := e.Live().N(); n != 0 {
		t.Errorf("rejected blobs left mass %v", n)
	}
}

func TestDynamicCreateAndErrors(t *testing.T) {
	ts, _ := newTestServer(t, registry.Config{})
	ctx := context.Background()
	c := client.New(ts.URL, "fresh")
	if _, err := c.Push(ctx, []string{"a"}); err == nil {
		t.Error("push to a nonexistent summary succeeded")
	}
	if err := c.Create(ctx, hh.Spec{Capacity: 64, Shards: 2}); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := c.Create(ctx, hh.Spec{Capacity: 64}); err == nil || !strings.Contains(err.Error(), "409") {
		t.Errorf("duplicate create: err = %v, want 409", err)
	}
	bad := client.New(ts.URL, "bad")
	if err := bad.Create(ctx, hh.Spec{Algorithm: "nope"}); err == nil {
		t.Error("create with unknown algorithm succeeded")
	}
	if err := bad.Create(ctx, hh.Spec{Capacity: -3}); err == nil {
		t.Error("create with negative capacity succeeded")
	}
	// A spec whose snapshot blob would exceed the decoder's capacity
	// limit is refused before anything is allocated.
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/huge",
		strings.NewReader(`{"capacity": 4194304, "shards": 8}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("PUT of an undecodable capacity: status %d, want 400", resp.StatusCode)
	}
	if _, err := c.Push(ctx, []string{"a", "b", "a"}); err != nil {
		t.Fatalf("push after create: %v", err)
	}
	est, err := c.Estimate(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	if est.Estimate != 2 {
		t.Errorf("estimate = %v, want 2", est.Estimate)
	}

	// Query-parameter validation.
	for _, path := range []string{"/v1/fresh/top?k=0", "/v1/fresh/top?k=x",
		"/v1/fresh/heavyhitters?phi=0", "/v1/fresh/heavyhitters?phi=1.5",
		"/v1/fresh/heavyhitters", "/v1/fresh/estimate"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", path, resp.StatusCode)
		}
	}
}

func TestBodyLimit(t *testing.T) {
	ts, reg := newTestServer(t, registry.Config{
		MaxBodyBytes: 1 << 10,
		Summaries:    map[string]hh.Spec{"s": {Capacity: 64}},
	})
	big := strings.Repeat("k\n", 1<<10)
	resp, err := http.Post(ts.URL+"/v1/s/update", registry.ContentTypeText, strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", resp.StatusCode)
	}
	e, _ := reg.Get("s")
	if n := e.Live().N(); n != 0 {
		t.Errorf("oversized body ingested mass %v", n)
	}
}

// TestCompaction: past max_blobs the pushed blobs compact into one
// nested merge — mass is preserved exactly and bounds stay certain
// (they may widen; they must still contain the truth).
func TestCompaction(t *testing.T) {
	const m = 128
	ts, reg := newTestServer(t, registry.Config{
		MaxBlobs:  2,
		Summaries: map[string]hh.Spec{"agg": {Capacity: m}},
	})
	ctx := context.Background()
	c := client.New(ts.URL, "agg")
	truth := make(map[string]float64)
	var total float64
	for seed := uint64(1); seed <= 4; seed++ {
		agent := hh.New[string](hh.WithCapacity(m))
		keys := zipfKeys(300, 10_000, seed)
		for _, k := range keys {
			truth[k]++
		}
		total += float64(len(keys))
		agent.UpdateBatch(keys)
		if _, err := c.MergeSummary(ctx, agent); err != nil {
			t.Fatal(err)
		}
	}
	top, err := c.Top(ctx, 15)
	if err != nil {
		t.Fatal(err)
	}
	if top.N != total {
		t.Errorf("compacted N = %v, want %v", top.N, total)
	}
	for _, r := range top.Results {
		if f := truth[r.Item]; f < r.Lo || f > r.Hi {
			t.Errorf("true count %v of %q escapes compacted bounds [%v, %v]", f, r.Item, r.Lo, r.Hi)
		}
	}
	e, _ := reg.Get("agg")
	if stats := e.ReadStats(); stats.MergedBlobs != 4 {
		t.Errorf("merged_blobs = %d, want 4", stats.MergedBlobs)
	}
}

func TestHealthAndMetrics(t *testing.T) {
	ts, _ := newTestServer(t, registry.Config{
		Summaries: map[string]hh.Spec{"a": {Capacity: 64}, "b": {Capacity: 64}},
	})
	ctx := context.Background()
	if err := client.New(ts.URL, "a").Health(ctx); err != nil {
		t.Fatalf("Health: %v", err)
	}
	c := client.New(ts.URL, "a")
	if _, err := c.Push(ctx, []string{"x", "y", "x"}); err != nil {
		t.Fatal(err)
	}
	agent := hh.New[string](hh.WithCapacity(64))
	agent.Update("z")
	if _, err := c.MergeSummary(ctx, agent); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Top(ctx, 5); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m struct {
		UptimeSeconds float64                   `json:"uptime_seconds"`
		Summaries     map[string]registry.Stats `json:"summaries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	a, ok := m.Summaries["a"]
	if !ok {
		t.Fatalf("metricsz missing summary a: %+v", m)
	}
	if a.IngestedItems != 3 || a.IngestedBatches != 1 || a.MergedBlobs != 1 {
		t.Errorf("metrics = %+v, want 3 items / 1 batch / 1 blob", a)
	}
	if a.N != 4 {
		t.Errorf("metrics N = %v, want 4 (3 live + 1 pushed)", a.N)
	}
	if a.SnapshotGeneration == 0 {
		t.Error("snapshot_generation still 0 after a post-merge query")
	}
	if b := m.Summaries["b"]; b.IngestedItems != 0 || b.N != 0 {
		t.Errorf("idle summary metrics = %+v, want zeros", b)
	}
}

// TestViewCaching: the union view rebuilds only when ingest advanced
// or a blob arrived, not per query.
func TestViewCaching(t *testing.T) {
	reg, err := registry.New(registry.Config{
		Summaries: map[string]hh.Spec{"v": {Capacity: 64}},
	})
	if err != nil {
		t.Fatal(err)
	}
	e, _ := reg.Get("v")
	agent := hh.New[string](hh.WithCapacity(64))
	agent.UpdateBatch([]string{"a", "b", "a"})
	var buf bytes.Buffer
	if err := agent.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AbsorbBlob(&buf); err != nil {
		t.Fatal(err)
	}
	v1, err := e.View()
	if err != nil {
		t.Fatal(err)
	}
	v2, err := e.View()
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Error("idle views differ: cache not reused")
	}
	if gen := e.ReadStats().SnapshotGeneration; gen != 1 {
		t.Errorf("snapshot generation = %d after two idle queries, want 1", gen)
	}
	e.IngestBatch([]string{"c"})
	v3, err := e.View()
	if err != nil {
		t.Fatal(err)
	}
	if v3 == v2 {
		t.Error("view not rebuilt after ingest advanced")
	}
	if v3.N() != 4 {
		t.Errorf("rebuilt view N = %v, want 4", v3.N())
	}
}

// TestViewQueryRace hammers one cached merged view with concurrent
// scratch-mutating queries (HeavyHitters iterates via each(), which
// reuses backend scratch): the View handle must serialize them. Under
// -race this fails deterministically if the view's mutex is removed.
func TestViewQueryRace(t *testing.T) {
	reg, err := registry.New(registry.Config{
		Summaries: map[string]hh.Spec{"v": {Capacity: 64}},
	})
	if err != nil {
		t.Fatal(err)
	}
	e, _ := reg.Get("v")
	agent := hh.New[string](hh.WithCapacity(64))
	agent.UpdateBatch(zipfKeys(200, 5_000, 13))
	var buf bytes.Buffer
	if err := agent.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AbsorbBlob(&buf); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				v, err := e.View()
				if err != nil {
					t.Error(err)
					return
				}
				if hits := v.HeavyHitters(0.01); len(hits) == 0 {
					t.Error("no heavy hitters from the cached view")
					return
				}
				if top := v.Top(5); len(top) == 0 {
					t.Error("empty top from the cached view")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestConcurrentTraffic hammers one summary with parallel pushers, a
// blob pusher and query traffic — the -race half of the e2e job runs
// this with the race detector on.
func TestConcurrentTraffic(t *testing.T) {
	ts, _ := newTestServer(t, registry.Config{
		Summaries: map[string]hh.Spec{"hot": {Capacity: 256, Shards: 4}},
	})
	ctx := context.Background()
	keys := zipfKeys(1000, 8_000, 9)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(part []string) {
			defer wg.Done()
			c := client.New(ts.URL, "hot")
			for lo := 0; lo < len(part); lo += 512 {
				if _, err := c.Push(ctx, part[lo:min(lo+512, len(part))]); err != nil {
					t.Errorf("Push: %v", err)
					return
				}
			}
		}(keys[w*2000 : (w+1)*2000])
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := client.New(ts.URL, "hot")
		for i := 0; i < 4; i++ {
			agent := hh.New[string](hh.WithCapacity(64))
			agent.UpdateBatch(zipfKeys(200, 1_000, uint64(20+i)))
			if _, err := c.MergeSummary(ctx, agent); err != nil {
				t.Errorf("MergeSummary: %v", err)
				return
			}
		}
	}()
	// Several concurrent query goroutines, deliberately including
	// HeavyHitters and Encode: once a blob lands, those run against the
	// shared cached merged view, whose scratch-reusing queries must be
	// serialized by the View handle (a single reader or Top/Estimate
	// alone would never catch two queries racing on one view).
	for q := 0; q < 3; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := client.New(ts.URL, "hot")
			var sink bytes.Buffer
			for i := 0; i < 40; i++ {
				if _, err := c.Top(ctx, 5); err != nil {
					t.Errorf("Top: %v", err)
					return
				}
				if _, err := c.HeavyHitters(ctx, 0.01); err != nil {
					t.Errorf("HeavyHitters: %v", err)
					return
				}
				if _, err := c.Estimate(ctx, "item-0"); err != nil {
					t.Errorf("Estimate: %v", err)
					return
				}
				sink.Reset()
				if err := c.Encode(ctx, &sink); err != nil {
					t.Errorf("Encode: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	c := client.New(ts.URL, "hot")
	top, err := c.Top(ctx, 5)
	if err != nil {
		t.Fatal(err)
	}
	wantN := float64(len(keys) + 4*1000)
	if math.Abs(top.N-wantN) > 1e-9 {
		t.Errorf("final N = %v, want %v", top.N, wantN)
	}
}
