// Package heavyhitters is the public API of this repository: streaming
// frequency estimation and heavy-hitter detection with the residual
// ("tail") error guarantees proved in
//
//	Berinde, Cormode, Indyk, Strauss.
//	"Space-optimal Heavy Hitters with Strong Error Bounds", PODS 2009.
//
// The central result is that the classic deterministic counter algorithms
// FREQUENT (Misra–Gries) and SPACESAVING, with m counters, estimate every
// item's frequency within
//
//	|f_i − f̂_i| ≤ F1^res(k) / (m − k)   for every k < m,
//
// where F1^res(k) is the stream mass excluding the k most frequent items —
// far stronger than the classical F1/m bound on skewed data, and achieved
// in O(k) space where sketches need Ω(k log(n/k)).
//
// # Quick start
//
//	s := heavyhitters.New[string](heavyhitters.WithCapacity(100))
//	for _, word := range words {
//		s.Update(word)
//	}
//	for _, e := range s.Top(10) {
//		fmt.Println(e.Item, e.Count)
//	}
//	for _, h := range s.HeavyHitters(0.01) {
//		fmt.Println(h.Item, h.Lo, h.Hi, h.Guaranteed)
//	}
//
// New is the single entry point: WithAlgorithm selects among the five
// algorithms, WithErrorBudget sizes the structure from accuracy targets,
// WithShards makes it safe for concurrent use, WithWeighted switches to
// the real-valued Section 6.1 variants. Spec is the JSON-portable twin
// of the option list (NewFromSpec), used wherever summaries are built
// from declarative configuration. The typed constructors
// (NewSpaceSaving, NewFrequent, ...) and the paper-facing free functions
// over Counter values (KSparseRecovery, EstimateResidual, EstimateBounds)
// remain as a low-level surface for callers that need a concrete
// algorithm type; everything else goes through New.
//
// Beyond point estimates the package exposes the paper's derived
// machinery: k-sparse and m-sparse recovery of the frequency vector
// (Theorems 5, 7), residual estimation (Theorem 6), weighted-update
// variants (Theorem 10), and mergeable summaries (Theorem 11).
//
// The randomized sketch baselines of the paper's Table 1 (Count-Min,
// Count-Sketch) are exported too, primarily for comparison studies; they
// support deletions, which no counter algorithm can.
//
// Around the library, cmd/hhserverd serves registries of summaries over
// HTTP and the hhwire binary ingest protocol (docs/WIRE.md), with
// package client as the typed producer/consumer for both planes; see
// docs/ARCHITECTURE.md and docs/OPERATIONS.md for the full tour.
package heavyhitters
