package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"

	hh "repro"
	"repro/internal/registry"
)

// exactCounts is the oracle: the per-rank count of every item the
// daemon acknowledged, recovered or merged.
func exactCounts(in *inputs, base []uint64, acked []uint32, merges int64) []uint64 {
	c := slices.Clone(base)
	for b, n := range acked {
		if n == 0 {
			continue
		}
		for _, id := range in.batchIDs(b) {
			c[id] += uint64(n)
		}
	}
	if merges > 0 {
		for id, n := range in.blobCount {
			c[id] += uint64(n) * uint64(merges)
		}
	}
	return c
}

// checkResult is the outcome of the final checkpoint.
type checkResult struct {
	topWidth      float64 // max (hi-lo)/N over the served Top(100)
	tailBoundFrac float64 // the served k-tail bound for k = tailK, over N
	violations    []string
	ops           opCounter
}

func (r *checkResult) violate(format string, args ...any) {
	if len(r.violations) < 8 {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

// checkpoint queries the served summary once load has stopped and
// checks it against the exact counts:
//   - every served Top(100) interval [lo, hi] contains the exact count;
//   - HeavyHitters(hhPhi) lists every item whose exact count reaches
//     hhPhi * N;
//   - the served N equals the acknowledged, recovered and merged mass;
//   - every item's estimate in the served encoding (GET /encode) is
//     within the k-tail bound A * res1(k) / (m - B k) for k = tailK,
//     with (A, B) and m as the encoding advertises them.
func checkpoint(c *http.Client, base string, in *inputs, exact []uint64) checkResult {
	var r checkResult
	rank := make(map[string]int, len(in.keys))
	for i, k := range in.keys {
		rank[k] = i
	}
	var wantN float64
	for _, n := range exact {
		wantN += float64(n)
	}
	prefix := base + "/v1/" + summaryName

	var top registry.QueryResponse
	if err := getJSON(c, prefix+"/top?k=100", &top, &r.ops); err != nil {
		r.violate("top(100): %v", err)
		return r
	}
	if top.N != wantN {
		r.violate("served N %.0f, want %.0f (acked + recovered + merged)", top.N, wantN)
	}
	for _, e := range top.Results {
		id, ok := rank[e.Item]
		if !ok {
			r.violate("top(100) returned unknown key %q", e.Item)
			continue
		}
		if f := float64(exact[id]); f < e.Lo || f > e.Hi {
			r.violate("top(100) %q: exact %.0f outside [%.0f, %.0f]", e.Item, f, e.Lo, e.Hi)
		}
		if top.N > 0 {
			r.topWidth = math.Max(r.topWidth, (e.Hi-e.Lo)/top.N)
		}
	}

	var hits registry.QueryResponse
	if err := getJSON(c, prefix+fmt.Sprintf("/heavyhitters?phi=%g", hhPhi), &hits, &r.ops); err != nil {
		r.violate("heavyhitters: %v", err)
		return r
	}
	listed := make(map[string]bool, len(hits.Results))
	for _, h := range hits.Results {
		listed[h.Item] = true
	}
	for id, n := range exact {
		if float64(n) >= hhPhi*hits.N && !listed[in.keys[id]] {
			r.violate("heavyhitters(%g) misses %q (exact %d, threshold %.0f)", hhPhi, in.keys[id], n, hhPhi*hits.N)
		}
	}

	r.ops.add(1, 0)
	resp, err := c.Get(prefix + "/encode")
	if err != nil {
		r.ops.add(0, 1)
		r.violate("encode: %v", err)
		return r
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		r.ops.add(0, 1)
		r.violate("encode: status %d, %v", resp.StatusCode, err)
		return r
	}
	served, err := hh.Decode[string](bytes.NewReader(blob))
	if err != nil {
		r.violate("decoding the served encoding: %v", err)
		return r
	}
	if served.N() != wantN {
		r.violate("encoded N %.0f, want %.0f", served.N(), wantN)
	}
	g, ok := served.Guarantee()
	if !ok {
		r.violate("the served encoding carries no (A, B) guarantee")
		return r
	}
	sorted := slices.Clone(exact)
	slices.Sort(sorted)
	res1 := wantN
	for _, n := range sorted[len(sorted)-tailK:] {
		res1 -= float64(n)
	}
	bound := g.Bound(served.Capacity(), tailK, res1)
	r.tailBoundFrac = bound / wantN
	for id, n := range exact {
		if d := math.Abs(served.Estimate(in.keys[id]) - float64(n)); d > bound*(1+1e-12) {
			r.violate("k-tail bound: %q error %.0f exceeds A*res1(%d)/(m-B*k) = %.1f (A=%g B=%g m=%d)",
				in.keys[id], d, tailK, bound, g.A, g.B, served.Capacity())
		}
	}
	return r
}

// getJSON performs one counted GET and decodes its JSON body into v.
func getJSON(c *http.Client, u string, v any, ops *opCounter) error {
	ops.add(1, 0)
	resp, err := c.Get(u)
	if err == nil {
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d", resp.StatusCode)
		} else {
			err = json.NewDecoder(resp.Body).Decode(v)
		}
		resp.Body.Close()
	}
	if err != nil {
		ops.add(0, 1)
	}
	return err
}
