package main_test

// Crash-durability tests against the real hhserverd binary: kill -9
// mid-ingest, restart on the same data directory, and check the
// recovered registry against an exact oracle — every acknowledged batch
// present, whole-or-nothing batch granularity, bounds still sound, and
// a second no-ingest restart changing nothing (daemon-level replay
// idempotence). Named TestCrash* (not TestE2E*) so the CI crash step
// selects them with -run 'TestCrash' without double-running the e2e
// job's filter. Skipped under -short.

import (
	"context"
	"fmt"
	"strings"
	"syscall"
	"testing"
	"time"

	hh "repro"
	"repro/client"
	"repro/internal/stream"
)

// crashConfig arms durability with fsync=always: an acknowledged batch
// is on stable storage before the ack, so kill -9 may lose only
// unacknowledged work. The short snapshot interval makes the periodic
// snapshot writer run (and prune WAL segments) during the test, so
// recovery exercises snapshot + tail, not the WAL alone.
func crashConfig(dataDir string) string {
	return fmt.Sprintf(`{
		"summaries": {"crash": {"capacity": 256}},
		"durability": {"dir": %q, "fsync": "always", "snapshot_interval": "300ms"}
	}`, dataDir)
}

func TestCrashKillNineRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e test skipped in -short mode")
	}
	dataDir := t.TempDir()
	cfg := crashConfig(dataDir)
	s := bootServerd(t, cfg, "-wire-addr", "127.0.0.1:0")
	waitHealthy(t, s.base)
	ctx := context.Background()

	// One wire connection = one in-order frame stream, so whatever
	// survives the crash is a batch-aligned PREFIX of what was sent —
	// which is what lets the oracle below be exact.
	const batch = 512
	const total = 80 * batch
	keys := make([]string, 0, total)
	for _, x := range stream.Zipf(1500, 1.1, total, stream.OrderRandom, 23) {
		keys = append(keys, fmt.Sprintf("c%d", x))
	}

	c, err := client.DialWire(s.wireAddr, "crash")
	if err != nil {
		t.Fatalf("DialWire: %v", err)
	}
	defer c.Close()
	// Phase 1: acknowledged ingest. Each Flush returns only after the
	// server applied (and, at fsync=always, persisted) every frame before
	// it — this mass is the floor recovery must clear.
	ackedThrough := 40 * batch
	for lo := 0; lo < ackedThrough; lo += batch {
		if err := c.PushBatch(keys[lo : lo+batch]); err != nil {
			t.Fatalf("PushBatch: %v", err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	// Phase 2: fire the rest unacknowledged and kill -9 mid-stream. Some
	// of these batches land durably, some die in socket buffers, the last
	// WAL frame may tear — all states recovery must handle.
	go func() {
		for lo := ackedThrough; lo < total; lo += batch {
			if c.PushBatch(keys[lo:lo+batch]) != nil {
				return // the dying server killed the connection; expected
			}
		}
	}()
	time.Sleep(50 * time.Millisecond)
	_ = s.cmd.Process.Kill() // SIGKILL: no drain, no final snapshot
	s.wait()

	// Restart on the same data directory.
	s2 := bootServerd(t, cfg, "-wire-addr", "127.0.0.1:0")
	waitHealthy(t, s2.base)
	waitStdout(t, s2, "hhserverd durability: data dir")
	waitStdout(t, s2, `hhserverd recovered "crash"`)

	hc := client.New(s2.base, "crash")
	top, err := hc.Top(ctx, 10)
	if err != nil {
		t.Fatalf("Top after recovery: %v", err)
	}
	n := int(top.N)
	if float64(n) != top.N {
		t.Fatalf("recovered N = %v, not integral", top.N)
	}
	// Whole-or-nothing batch granularity: the WAL logs a parsed batch as
	// one record, so a crash can never leave a fraction of one applied.
	if n%batch != 0 {
		t.Errorf("recovered N = %d, not a multiple of the %d-key batch size", n, batch)
	}
	// Every acknowledged batch survived; nothing was invented.
	if n < ackedThrough {
		t.Errorf("recovered N = %d lost acknowledged mass (acked through %d)", n, ackedThrough)
	}
	if n > total {
		t.Errorf("recovered N = %d exceeds the %d keys ever sent", n, total)
	}

	// Exact prefix oracle: the recovered stream is keys[:n].
	exact := make(map[string]float64, 1500)
	for _, k := range keys[:min(n, total)] {
		exact[k]++
	}
	for _, r := range top.Results {
		if f := exact[r.Item]; f < r.Lo || f > r.Hi {
			t.Errorf("recovered top %q: true %v outside served bounds [%v, %v]", r.Item, f, r.Lo, r.Hi)
		}
	}
	// Heavy-hitter completeness over the recovered prefix.
	const phi = 0.02
	got, err := hc.HeavyHitters(ctx, phi)
	if err != nil {
		t.Fatalf("HeavyHitters: %v", err)
	}
	hhSet := make(map[string]bool, len(got.Results))
	for _, r := range got.Results {
		hhSet[r.Item] = true
	}
	for k, f := range exact {
		if f > phi*float64(n) && !hhSet[k] {
			t.Errorf("exact heavy hitter %q (count %v) missing from the recovered set", k, f)
		}
	}

	// Second kill -9 with NO new ingest: replaying the same tail again
	// must change nothing — the daemon-level replay-idempotence pin.
	_ = s2.cmd.Process.Kill()
	s2.wait()
	s3 := bootServerd(t, cfg, "-wire-addr", "127.0.0.1:0")
	waitHealthy(t, s3.base)
	top3, err := client.New(s3.base, "crash").Top(ctx, 10)
	if err != nil {
		t.Fatalf("Top after second recovery: %v", err)
	}
	if top3.N != top.N {
		t.Errorf("double replay moved N %v -> %v", top.N, top3.N)
	}
	for _, r := range top3.Results {
		if f := exact[r.Item]; f < r.Lo || f > r.Hi {
			t.Errorf("second recovery top %q: true %v outside [%v, %v]", r.Item, f, r.Lo, r.Hi)
		}
	}
}

// TestCrashGracefulDrain covers the other shutdown path: SIGTERM drains
// and commits a final snapshot, so the next boot restarts from the
// snapshot alone — config-declared and runtime-PUT summaries alike —
// and replays an empty tail.
func TestCrashGracefulDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e test skipped in -short mode")
	}
	dataDir := t.TempDir()
	// -data-dir without a config stanza: durability with defaults.
	cfgJSON := `{"summaries": {"cfg": {"capacity": 64}}}`
	s := bootServerd(t, cfgJSON, "-data-dir", dataDir)
	waitHealthy(t, s.base)
	ctx := context.Background()

	cc := client.New(s.base, "cfg")
	if _, err := cc.Push(ctx, []string{"a", "b", "a"}); err != nil {
		t.Fatalf("Push: %v", err)
	}
	// A summary created at runtime over HTTP must survive the drain too.
	rc := client.New(s.base, "rt")
	if err := rc.Create(ctx, hh.Spec{Capacity: 64}); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := rc.Push(ctx, []string{"x", "x"}); err != nil {
		t.Fatalf("Push: %v", err)
	}

	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	s.wait()
	if out := s.stdoutText(); !strings.Contains(out, "final snapshot committed") {
		t.Fatalf("drain did not report a final snapshot; stdout:\n%s", out)
	}

	s2 := bootServerd(t, cfgJSON, "-data-dir", dataDir)
	waitHealthy(t, s2.base)
	// The drain snapshot covered everything: the recovering boot replays
	// an empty tail.
	waitStdout(t, s2, "replayed 0 batches (0 items), 0 blobs")
	for name, want := range map[string]float64{"cfg": 3, "rt": 2} {
		top, err := client.New(s2.base, name).Top(ctx, 5)
		if err != nil {
			t.Fatalf("%s: Top: %v", name, err)
		}
		if top.N != want {
			t.Errorf("%s: recovered N = %v, want %v", name, top.N, want)
		}
	}
}
