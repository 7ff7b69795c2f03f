package main_test

// End-to-end tests of the hhwire binary ingest path (docs/WIRE.md)
// against the real hhserverd binary: TCP frames pushed through
// client.WireConn land in a summary queried back over HTTP and checked
// against an exact oracle; malformed frames kill the connection without
// moving any summary's mass; a WireConn survives a full server restart
// through its automatic reconnect; and UDP datagram ingest works as the
// lossy telemetry path. The CI e2e job runs these plain and under
// -race. Skipped under -short.

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/client"
	"repro/internal/stream"
	"repro/internal/wire"
)

const wireConfig = `{
	"summaries": {
		"wire": {"capacity": 256}
	}
}`

// httpN reads the summary's stream mass over the HTTP control plane.
func httpN(t *testing.T, base string) float64 {
	t.Helper()
	top, err := client.New(base, "wire").Top(context.Background(), 1)
	if err != nil {
		t.Fatalf("Top: %v", err)
	}
	return top.N
}

func TestE2EWireTCPIngest(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e test skipped in -short mode")
	}
	s := bootServerd(t, wireConfig, "-wire-addr", "127.0.0.1:0", "-udp-addr", "127.0.0.1:0")
	waitHealthy(t, s.base)
	ctx := context.Background()

	const n = 20_000
	truth := make(map[string]float64)
	keys := make([]string, 0, n)
	for _, x := range stream.Zipf(1000, 1.1, n, stream.OrderRandom, 7) {
		k := fmt.Sprintf("w%d", x)
		keys = append(keys, k)
		truth[k]++
	}

	c, err := client.DialWire(s.wireAddr, "wire")
	if err != nil {
		t.Fatalf("DialWire: %v", err)
	}
	defer c.Close()
	// Mix the two push shapes: per-key Push (auto-batching) for the
	// first half, PushBatch for the second.
	half := len(keys) / 2
	for _, k := range keys[:half] {
		if err := c.Push(k); err != nil {
			t.Fatalf("Push: %v", err)
		}
	}
	for lo := half; lo < len(keys); lo += 4096 {
		if err := c.PushBatch(keys[lo:min(lo+4096, len(keys))]); err != nil {
			t.Fatalf("PushBatch: %v", err)
		}
	}
	// The acknowledged Flush is the sync barrier: after it returns, every
	// key above is ingested and the HTTP queries below see all of them.
	if err := c.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	hc := client.New(s.base, "wire")
	top, err := hc.Top(ctx, 10)
	if err != nil {
		t.Fatalf("Top: %v", err)
	}
	if top.N != n {
		t.Errorf("N over the wire path = %v, want %d", top.N, n)
	}
	for _, r := range top.Results {
		if f := truth[r.Item]; f < r.Lo || f > r.Hi {
			t.Errorf("top item %q: true %v outside served bounds [%v, %v]", r.Item, f, r.Lo, r.Hi)
		}
	}
	est, err := hc.Estimate(ctx, top.Results[0].Item)
	if err != nil {
		t.Fatalf("Estimate: %v", err)
	}
	if f := truth[est.Key]; f < est.Lo || f > est.Hi {
		t.Errorf("estimate of %q: true %v outside [%v, %v]", est.Key, f, est.Lo, est.Hi)
	}
}

// TestE2EWireMalformedFrameMovesNothing pins the whole-or-nothing
// contract at the daemon level: a connection sending a malformed frame
// is killed, and the summary's mass is exactly what it was — never a
// partial batch.
func TestE2EWireMalformedFrameMovesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e test skipped in -short mode")
	}
	s := bootServerd(t, wireConfig, "-wire-addr", "127.0.0.1:0")
	waitHealthy(t, s.base)

	// Seed some mass through the legitimate path first, so "unchanged"
	// is a non-trivial assertion.
	c, err := client.DialWire(s.wireAddr, "wire")
	if err != nil {
		t.Fatalf("DialWire: %v", err)
	}
	if err := c.PushBatch([]string{"a", "b", "a"}); err != nil {
		t.Fatalf("PushBatch: %v", err)
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	c.Close()
	before := httpN(t, s.base)

	bad := [][]byte{
		[]byte("XXXXXXXXXXXXXXXX"),                                                               // bad magic
		wire.AppendFrame(nil, "nosuch", 0, nil),                                                  // unknown summary
		wire.AppendFrame(nil, "wire", 0, []byte{0xff}),                                           // truncated uvarint in the batch body
		append(wire.AppendFrame(nil, "wire", 0, nil), "HHWB\x01\x00\x04\x00\xff\xff\xff\x7f"...), // oversized body length
	}
	for i, b := range bad {
		conn, err := net.Dial("tcp", s.wireAddr)
		if err != nil {
			t.Fatalf("case %d: dial: %v", i, err)
		}
		if _, err := conn.Write(b); err != nil {
			t.Fatalf("case %d: write: %v", i, err)
		}
		// The kill contract: the server closes on us, so a blocking read
		// unblocks with EOF or a reset, not a timeout.
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		if _, err := conn.Read(make([]byte, 1)); err == nil {
			t.Errorf("case %d: connection survived a malformed frame", i)
		}
		conn.Close()
	}
	if after := httpN(t, s.base); after != before {
		t.Errorf("malformed frames moved mass %v -> %v", before, after)
	}
}

// TestE2EWireReconnect restarts the daemon under a live WireConn: the
// client's automatic reconnect must carry it to the new process with at
// most the unacknowledged window lost — pushes retried until a Flush
// acknowledges land fully in the restarted server.
func TestE2EWireReconnect(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e test skipped in -short mode")
	}
	// The restarted process must come back on the same wire port, so
	// reserve one: bind :0, note the port, release it. The small window
	// in which another process could steal it is acceptable in CI.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wireAddr := ln.Addr().String()
	ln.Close()

	s := bootServerd(t, wireConfig, "-wire-addr", wireAddr)
	waitHealthy(t, s.base)

	c, err := client.DialWire(wireAddr, "wire")
	if err != nil {
		t.Fatalf("DialWire: %v", err)
	}
	defer c.Close()
	if err := c.PushBatch([]string{"pre", "pre"}); err != nil {
		t.Fatalf("PushBatch: %v", err)
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	// Kill the daemon (summaries are in-memory: the restarted process
	// starts from zero) and boot a replacement on the same wire port.
	_ = s.cmd.Process.Kill()
	s.wait()
	s2 := bootServerd(t, wireConfig, "-wire-addr", wireAddr)
	waitHealthy(t, s2.base)

	// The old connection is dead. The reliability contract allows the
	// unacknowledged window to vanish: a batch the dead socket's kernel
	// buffer swallowed can be lost even though PushBatch returned nil,
	// and the redialed Flush frame then acknowledges alone. So the test
	// does what a real at-least-once producer does — repush until the
	// data itself is visible, proving the reconnect carried the
	// connection to the new process.
	hc := client.New(s2.base, "wire")
	batch := []string{"post", "post", "post"}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := c.PushBatch(batch); err == nil {
			if err := c.Flush(); err == nil {
				if est, err := hc.Estimate(context.Background(), "post"); err == nil && est.Estimate >= 3 {
					return
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("WireConn never reconnected to the restarted server")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestE2EWireUDPIngest smoke-tests the datagram path: frames sent as
// UDP datagrams land (loopback delivery), malformed datagrams are
// dropped without killing anything, and counts come back over HTTP.
func TestE2EWireUDPIngest(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e test skipped in -short mode")
	}
	s := bootServerd(t, wireConfig, "-udp-addr", "127.0.0.1:0")
	waitHealthy(t, s.base)
	ctx := context.Background()

	c, err := client.DialWireUDP(s.udpAddr, "wire")
	if err != nil {
		t.Fatalf("DialWireUDP: %v", err)
	}
	defer c.Close()

	// A malformed datagram and an unknown-summary frame: both dropped
	// silently, neither may take the listener down.
	raw, err := net.Dial("udp", s.udpAddr)
	if err != nil {
		t.Fatal(err)
	}
	raw.Write([]byte("garbage"))
	raw.Write(wire.AppendFrame(nil, "nosuch", 0, nil))
	raw.Close()

	// UDP is lossy by contract, so send-and-poll: loopback delivery is
	// near-certain, but the test retries rather than assuming.
	hc := client.New(s.base, "wire")
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := c.PushBatch([]string{"u1", "u2", "u1"}); err != nil {
			t.Fatalf("PushBatch: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
		if est, err := hc.Estimate(ctx, "u1"); err == nil && est.Estimate >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("UDP datagrams never arrived over loopback")
		}
	}
}
