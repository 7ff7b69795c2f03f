package heavyhitters

import "repro/internal/merge"

// MergedGuarantee maps per-summary tail constants (A, B) to the merged
// summary's (3A, A+B) of Theorem 11 — the guarantee MergeSummaries
// advertises for its result.
func MergedGuarantee(g TailGuarantee) TailGuarantee {
	return merge.MergedGuarantee(g)
}
