package heavyhitters

import (
	"cmp"

	"repro/internal/core"
	"repro/internal/frequent"
	"repro/internal/lossycounting"
	"repro/internal/sketch"
	"repro/internal/spacesaving"
)

// Entry is one stored counter of a summary: the item, its estimated
// count, and — for overestimating algorithms — the recorded bound on the
// overestimate (SPACESAVING's ε_i; FREQUENT leaves it zero).
type Entry[K comparable] = core.Entry[K]

// WeightedEntry is an Entry of a real-valued summary.
type WeightedEntry[K comparable] = core.WeightedEntry[K]

// Counter is a deterministic counter algorithm processing unit-weight
// streams: FREQUENT, SPACESAVING (either backing structure), or
// LOSSYCOUNTING. (It was named Summary before that name moved to the
// unified interface returned by New.)
type Counter[K comparable] = core.Algorithm[K]

// WeightedCounter is a counter algorithm processing positive real-valued
// updates (Section 6.1 of the paper): FREQUENTR or SPACESAVINGR.
type WeightedCounter[K comparable] = core.WeightedAlgorithm[K]

// TailGuarantee carries the constants (A, B) of a summary's k-tail
// guarantee: every error is at most A·F1^res(k)/(m − B·k). Both
// SPACESAVING and FREQUENT provide (1, 1).
type TailGuarantee = core.TailGuarantee

// Frequent is the FREQUENT (Misra–Gries) algorithm: m counters, O(1)
// amortised per update, never overestimates.
type Frequent[K comparable] = frequent.Frequent[K]

// FrequentR is the real-valued update extension of FREQUENT.
type FrequentR[K comparable] = frequent.FrequentR[K]

// SpaceSaving is the SPACESAVING algorithm backed by the Stream-Summary
// bucket list: m counters, O(1) per update, never underestimates, and the
// per-item overestimate is tracked in Entry.Err.
type SpaceSaving[K comparable] = spacesaving.StreamSummary[K]

// SpaceSavingHeap is SPACESAVING backed by a (count, identifier) min-heap:
// O(log m) per update with the deterministic smallest-identifier eviction
// rule used in the paper's proofs.
type SpaceSavingHeap[K cmp.Ordered] = spacesaving.Heap[K]

// SpaceSavingR is the real-valued update extension of SPACESAVING.
type SpaceSavingR[K comparable] = spacesaving.R[K]

// LossyCounting is the Manku–Motwani baseline. Unlike the algorithms
// above it has no hard counter cap and no residual guarantee; it is
// exported for comparison studies.
type LossyCounting[K comparable] = lossycounting.LossyCounting[K]

// CountMin is the Count-Min sketch baseline over uint64 items.
type CountMin = sketch.CountMin

// CountSketch is the Count-Sketch baseline over uint64 items.
type CountSketch = sketch.CountSketch

// NewFrequent returns a FREQUENT summary with m counters. With m counters
// every estimate satisfies f_i − F1^res(k)/(m+1−k) ≤ f̂_i ≤ f_i for all
// k < m. It panics if m < 1.
func NewFrequent[K comparable](m int) *Frequent[K] { return frequent.New[K](m) }

// NewFrequentR returns a weighted FREQUENT summary with m counters
// (Theorem 10 guarantees). It panics if m < 1.
func NewFrequentR[K comparable](m int) *FrequentR[K] { return frequent.NewR[K](m) }

// NewSpaceSaving returns a SPACESAVING summary with m counters backed by
// a Stream-Summary. With m counters every estimate satisfies
// f_i ≤ f̂_i ≤ f_i + F1^res(k)/(m−k) for all k < m. It panics if m < 1.
func NewSpaceSaving[K comparable](m int) *SpaceSaving[K] { return spacesaving.New[K](m) }

// NewSpaceSavingHeap returns the heap-backed SPACESAVING variant with
// deterministic smallest-identifier eviction. It panics if m < 1.
func NewSpaceSavingHeap[K cmp.Ordered](m int) *SpaceSavingHeap[K] {
	return spacesaving.NewHeap[K](m)
}

// NewSpaceSavingR returns a weighted SPACESAVING summary with m counters
// (Theorem 10 guarantees). It panics if m < 1.
func NewSpaceSavingR[K comparable](m int) *SpaceSavingR[K] { return spacesaving.NewR[K](m) }

// NewLossyCounting returns a LOSSYCOUNTING baseline with window width w
// (error parameter ε = 1/w). It panics if w < 1.
func NewLossyCounting[K comparable](w int) *LossyCounting[K] { return lossycounting.New[K](w) }

// NewCountMin returns a depth×width Count-Min sketch seeded
// deterministically. It panics if either dimension is < 1.
func NewCountMin(depth, width int, seed uint64) *CountMin {
	return sketch.NewCountMin(depth, width, seed)
}

// NewCountSketch returns a depth×width Count-Sketch seeded
// deterministically. It panics if either dimension is < 1.
func NewCountSketch(depth, width int, seed uint64) *CountSketch {
	return sketch.NewCountSketch(depth, width, seed)
}

// ErrorBound returns the k-tail error bound A·res/(m−Bk) a summary with
// the given guarantee and m counters provides, given (an upper bound on)
// the residual F1^res(k). Use EstimateResidual to obtain the residual from
// the summary itself.
func ErrorBound(g TailGuarantee, m, k int, residual float64) float64 {
	return g.Bound(m, k, residual)
}

// CountersForRecovery returns the number of counters m = k(2A/ε + B)
// (one-sided algorithms; FREQUENT and SPACESAVING qualify) sufficient for
// the Theorem 5 k-sparse recovery bound at accuracy ε.
func CountersForRecovery(k int, eps float64, g TailGuarantee) int {
	return recoveryCounters(k, eps, g)
}
