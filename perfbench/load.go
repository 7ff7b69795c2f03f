package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"time"

	"repro/internal/registry"
	"repro/internal/wire"
)

// opTimeout bounds every single operation: a frame's ack, an HTTP
// round trip. An operation past it counts as failed.
const opTimeout = 10 * time.Second

// plan is one load phase on one connection. A closed loop (window > 0)
// keeps window frames in flight; an open loop (interval > 0) makes
// frame j due at t0 + j*interval whatever the daemon does, and times
// each ack from that due time.
type plan struct {
	until    time.Time
	window   int
	t0       time.Time
	interval time.Duration
}

func (p plan) open() bool { return p.interval > 0 }

// loadResult is what one connection (or reader) saw in one phase.
type loadResult struct {
	acked     []uint32 // acked[b]: acknowledgements of pool batch b
	items     int64
	attempted int64
	failed    int64
	lat       []time.Duration // open loop: due to ack or 2xx
	late      []time.Duration // open loop: due to send
	err       error           // first failure, for the log
}

func newLoadResult(in *inputs) *loadResult {
	return &loadResult{acked: make([]uint32, in.batches())}
}

func (r *loadResult) fail(err error) {
	r.failed++
	if r.err == nil {
		r.err = err
	}
}

// cursor walks one connection's share of the pool: connection c of
// conns sends batches c, c+conns, c+2*conns, ... cyclically.
type cursor struct{ next, step, n int }

func (c *cursor) take() int {
	b := c.next
	c.next = (c.next + c.step) % c.n
	return b
}

// sleepUntil waits for the due time of an open-loop send and returns
// how late the sender is.
func sleepUntil(due time.Time) time.Duration {
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
	}
	return time.Since(due)
}

// driveWire runs one hhwire TCP connection through plan p: every frame
// carries FlagAck, acks are read in order by a second goroutine, and
// nothing is retried — a frame without an ack counts as failed.
func driveWire(addr string, in *inputs, cur *cursor, p plan, res *loadResult) {
	conn, err := net.DialTimeout("tcp", addr, opTimeout)
	res.attempted++ // the connection itself
	if err != nil {
		res.fail(fmt.Errorf("dial wire: %w", err))
		return
	}
	defer conn.Close()

	type inflight struct {
		b   int
		due time.Time
	}
	// A closed loop's window is this channel's capacity: a frame is
	// queued before it is written and leaves after its ack. An open
	// loop sizes it to every frame it can send, so it never blocks.
	depth := p.window
	if p.open() {
		depth = int(p.until.Sub(p.t0)/p.interval) + 1
	}
	q := make(chan inflight, depth)
	done := make(chan struct{})
	go func() {
		defer close(done)
		br := bufio.NewReaderSize(conn, 4<<10)
		var ack [wire.AckLen]byte
		var readErr error
		for it := range q {
			if readErr == nil {
				_ = conn.SetReadDeadline(time.Now().Add(opTimeout))
				if _, err := io.ReadFull(br, ack[:]); err != nil {
					readErr = fmt.Errorf("reading ack: %w", err)
				} else if st, err := wire.ParseAck(ack[:]); err != nil || st != wire.AckStatusOK {
					readErr = fmt.Errorf("bad ack: status %d, %v", st, err)
				}
				if readErr != nil {
					conn.Close() // stops the writer
				}
			}
			if readErr != nil {
				res.fail(readErr)
				continue
			}
			res.acked[it.b]++
			res.items += batchLen
			if p.open() {
				res.lat = append(res.lat, time.Since(it.due))
			}
		}
	}()
	for j := 0; ; j++ {
		var due time.Time
		if p.open() {
			due = p.t0.Add(time.Duration(j) * p.interval)
			if !due.Before(p.until) {
				break
			}
			res.late = append(res.late, sleepUntil(due))
		} else if !time.Now().Before(p.until) {
			break
		}
		b := cur.take()
		q <- inflight{b, due}
		res.attempted++
		_ = conn.SetWriteDeadline(time.Now().Add(opTimeout))
		if _, err := conn.Write(in.frame(b)); err != nil {
			conn.Close() // the reader reports this frame as failed
			break
		}
	}
	close(q)
	<-done
}

// newHTTPClient returns a client that holds at most one connection.
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: opTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// roundTrip performs one request and drains the body, returning the
// status or the transport error.
func roundTrip(c *http.Client, req *http.Request) error {
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: status %d", req.Method, req.URL.Path, resp.StatusCode)
	}
	return nil
}

// driveHTTP runs binary POST /update ingest through plan p on one
// HTTP connection. Requests are serial, so in an open loop a slow
// answer delays later sends, and their latency counts that wait.
func driveHTTP(c *http.Client, base string, in *inputs, cur *cursor, p plan, res *loadResult) {
	u := base + "/v1/" + summaryName + "/update"
	for j := 0; ; j++ {
		var due time.Time
		if p.open() {
			due = p.t0.Add(time.Duration(j) * p.interval)
			if !due.Before(p.until) {
				break
			}
			res.late = append(res.late, sleepUntil(due))
		} else if !time.Now().Before(p.until) {
			break
		}
		b := cur.take()
		res.attempted++
		req, err := http.NewRequest(http.MethodPost, u, bytes.NewReader(in.body(b)))
		if err != nil {
			res.fail(err)
			continue
		}
		req.Header.Set("Content-Type", registry.ContentTypeBinary)
		if err := roundTrip(c, req); err != nil {
			res.fail(err)
			continue
		}
		res.acked[b]++
		res.items += batchLen
		if p.open() {
			res.lat = append(res.lat, time.Since(due))
		}
	}
}

// queryResult is what the closed-loop reader saw.
type queryResult struct {
	lat       []time.Duration // the four query kinds, round trip
	merges    int64           // accepted /merge pushes
	attempted int64
	failed    int64
	err       error
}

// readQueries is the closed-loop reader: Top(10), Top(100),
// HeavyHitters(hhPhi) and Estimate(key) round robin until until, with
// a /merge of the agent blob as every mergeEvery-th request (0: none).
func readQueries(c *http.Client, base string, in *inputs, until time.Time, mergeEvery int, res *queryResult) {
	prefix := base + "/v1/" + summaryName
	queries := []string{
		prefix + "/top?k=10",
		prefix + "/top?k=100",
		prefix + fmt.Sprintf("/heavyhitters?phi=%g", hhPhi),
	}
	var q, est int
	for i := 1; time.Now().Before(until); i++ {
		var req *http.Request
		var err error
		merge := mergeEvery > 0 && i%mergeEvery == 0
		if merge {
			req, err = http.NewRequest(http.MethodPost, prefix+"/merge", bytes.NewReader(in.blob))
		} else {
			u := ""
			if k := q % 4; k < 3 {
				u = queries[k]
			} else {
				u = prefix + "/estimate?key=" + url.QueryEscape(in.estKeys[est%len(in.estKeys)])
				est++
			}
			q++
			req, err = http.NewRequest(http.MethodGet, u, nil)
		}
		res.attempted++
		if err == nil {
			start := time.Now()
			if err = roundTrip(c, req); err == nil {
				if merge {
					res.merges++
				} else {
					res.lat = append(res.lat, time.Since(start))
				}
			}
		}
		if err != nil {
			res.failed++
			if res.err == nil {
				res.err = err
			}
		}
	}
}
