package heavyhitters_test

import (
	"encoding/json"
	"fmt"

	hh "repro"
)

// The most common use: count word frequencies in bounded memory and read
// off the heavy hitters.
func Example() {
	words := []string{
		"to", "be", "or", "not", "to", "be", "that", "is",
		"the", "question", "to", "be", "to", "not",
	}
	s := hh.New[string](hh.WithCapacity(6))
	for _, w := range words {
		s.Update(w)
	}
	for _, e := range s.Top(2) {
		fmt.Printf("%s %.0f\n", e.Item, e.Count)
	}
	// Output:
	// to 4
	// be 3
}

// FREQUENT never overestimates, which makes its counters safe lower
// bounds — useful when over-reporting is costly.
func ExampleNewFrequent() {
	f := hh.NewFrequent[string](2)
	for _, w := range []string{"a", "a", "a", "b", "c", "a"} {
		f.Update(w)
	}
	fmt.Println("estimate(a):", f.Estimate("a"))
	fmt.Println("true count is 4; FREQUENT only ever undercounts")
	// Output:
	// estimate(a): 3
	// true count is 4; FREQUENT only ever undercounts
}

// Weighted updates (Section 6.1): heavy hitters by total bytes rather
// than by packet count.
func ExampleNewSpaceSavingR() {
	ss := hh.NewSpaceSavingR[string](4)
	ss.UpdateWeighted("flow-a", 1500)
	ss.UpdateWeighted("flow-b", 64)
	ss.UpdateWeighted("flow-a", 9000)
	top := ss.AppendWeightedEntries(nil, 1)
	fmt.Printf("%s %.0f\n", top[0].Item, top[0].Count)
	// Output:
	// flow-a 10500
}

// Summaries built on separate streams merge into a summary of the union
// (Theorem 11) — the basis for distributed aggregation.
func ExampleMergeSummaries() {
	shard1 := hh.New[string](hh.WithCapacity(8))
	shard2 := hh.New[string](hh.WithCapacity(8))
	for _, w := range []string{"x", "x", "y"} {
		shard1.Update(w)
	}
	for _, w := range []string{"x", "z", "z", "z", "z"} {
		shard2.Update(w)
	}
	merged, err := hh.MergeSummaries(8, shard1, shard2)
	if err != nil {
		panic(err)
	}
	for _, e := range merged.Top(2) {
		fmt.Printf("%s %.0f\n", e.Item, e.Count)
	}
	// Output:
	// z 4
	// x 3
}

// The classical φ-heavy-hitters query: report everything possibly at or
// above a frequency threshold, with certainty labels and no false
// negatives.
func ExampleSummary_HeavyHitters() {
	s := hh.New[string](hh.WithCapacity(8))
	for i := 0; i < 7; i++ {
		s.Update("hot")
	}
	for i := 0; i < 2; i++ {
		s.Update("warm")
	}
	s.Update("rare")
	for _, h := range s.HeavyHitters(0.2) { // threshold: 2 of 10
		fmt.Printf("%s in [%.0f, %.0f] guaranteed=%v\n", h.Item, h.Lo, h.Hi, h.Guaranteed)
	}
	// Output:
	// hot in [7, 7] guaranteed=true
	// warm in [2, 2] guaranteed=true
}

// The k-sparse recovery (Theorem 5) reconstructs an approximate frequency
// vector from the summary.
func ExampleKSparseRecovery() {
	ss := hh.NewSpaceSaving[string](8)
	for _, w := range []string{"a", "a", "a", "b", "b", "c"} {
		ss.Update(w)
	}
	f := hh.KSparseRecovery[string](ss, 2)
	fmt.Printf("a=%.0f b=%.0f c=%.0f\n", f["a"], f["b"], f["c"])
	// Output:
	// a=3 b=2 c=0
}

// A sliding window answers "heavy hitters over the last n items": the
// epoch ring expels old mass as the stream advances, so yesterday's
// giant disappears once it stops arriving.
func ExampleWithWindow() {
	s := hh.New[string](hh.WithCapacity(8), hh.WithWindow(6), hh.WithEpochs(3))
	for i := 0; i < 10; i++ {
		s.Update("old-hot")
	}
	for i := 0; i < 8; i++ {
		s.Update("new-hot")
	}
	fmt.Printf("old-hot %.0f\n", s.Estimate("old-hot"))
	fmt.Printf("new-hot %.0f\n", s.Estimate("new-hot"))
	ws, _ := s.Window()
	fmt.Printf("covering the last %.0f items\n", ws.Covered)
	// Output:
	// old-hot 0
	// new-hot 6
	// covering the last 6 items
}

// NewFromSpec builds a summary from the JSON-portable Spec — the
// declarative twin of the option list, and the form hhserverd's
// registry config uses. The zero fields resolve like the zero-option
// New call.
func ExampleNewFromSpec() {
	var sp hh.Spec
	if err := json.Unmarshal([]byte(`{
		"algorithm": "spacesaving",
		"capacity":  8,
		"shards":    4,
		"concurrent": true
	}`), &sp); err != nil {
		panic(err)
	}
	s, err := hh.NewFromSpec[string](sp)
	if err != nil {
		panic(err)
	}
	for i := 0; i < 5; i++ {
		s.Update("hot")
	}
	s.Update("cold")
	fmt.Printf("N=%.0f hot=%.0f\n", s.N(), s.Estimate("hot"))
	// Output: N=6 hot=5
}
