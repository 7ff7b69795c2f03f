package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. All spans of one batch or query share
// an ID; Parent is the Seq of the enclosing span (-1 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Seq    int32  `json:"seq"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Items  int    `json:"items,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory. It is used from one goroutine; work
// timed on other goroutines is added afterwards with add. A tracer
// with on == false records nothing, which is how the untraced replay
// runs the same code.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func newTracer(on bool) *tracer {
	t := &tracer{on: on, t0: time.Now()}
	if on {
		t.spans = make([]span, 0, 1<<16)
	}
	return t
}

// begin opens a span and returns its Seq (-1 when tracing is off).
func (t *tracer) begin(id uint64, parent int32, name string) int32 {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{ID: id, Seq: int32(len(t.spans)), Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	return int32(len(t.spans) - 1)
}

// end closes span s, which covered items items.
func (t *tracer) end(s int32, items int) {
	if s < 0 {
		return
	}
	t.spans[s].End = int64(time.Since(t.t0))
	t.spans[s].Items = items
}

// add records a span timed elsewhere.
func (t *tracer) add(id uint64, parent int32, name string, start, end time.Time, items int) {
	if !t.on {
		return
	}
	t.spans = append(t.spans, span{ID: id, Seq: int32(len(t.spans)), Parent: parent, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Items: items})
}

// byName groups span durations and item counts by span name.
type spanStats struct {
	durs  []float64 // ns
	total time.Duration
	items int
	self  time.Duration
}

func (t *tracer) stats() map[string]*spanStats {
	m := make(map[string]*spanStats)
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	for i, s := range t.spans {
		st := m[s.Name]
		if st == nil {
			st = &spanStats{}
			m[s.Name] = st
		}
		st.durs = append(st.durs, float64(s.dur()))
		st.total += s.dur()
		st.items += s.Items
		st.self += s.dur() - child[i]
	}
	return m
}

// perItem is the span's total time per item in ns.
func (s *spanStats) perItem() float64 {
	if s == nil || s.items == 0 {
		return 0
	}
	return float64(s.total) / float64(s.items)
}

// q is the q-quantile of one call's duration in unit.
func (s *spanStats) q(q float64, unit time.Duration) float64 {
	if s == nil {
		return 0
	}
	return quantile(slices.Clone(s.durs), q) / float64(unit)
}

// writeSpans writes every span as one JSON line to path and prints a
// per-name summary (calls, total and self time) to standard output.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	st := t.stats()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	slices.Sort(names)
	fmt.Printf("perfbench: %d spans written to %s\n", len(t.spans), path)
	fmt.Printf("perfbench: %-34s %8s %12s %12s\n", "span", "calls", "total_ms", "self_ms")
	for _, n := range names {
		s := st[n]
		fmt.Printf("perfbench: %-34s %8d %12.3f %12.3f\n", n, len(s.durs),
			float64(s.total)/float64(time.Millisecond), float64(s.self)/float64(time.Millisecond))
	}
	return nil
}
