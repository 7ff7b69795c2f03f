// Package noallocfix exercises the noalloc analyzer: annotated
// functions must avoid allocating constructs and may only call other
// noalloc code; //hh:allocok waives a finding with a reason.
//
// Lines carrying a want comment must produce a matching diagnostic;
// all other lines must be clean.
package noallocfix

import "noallocfix/inner"

//hh:noalloc
func makes(n int) []int {
	s := make([]int, n) // want:noalloc "make allocates"
	return s
}

//hh:noalloc
func selfAppend(dst []int, v int) []int {
	dst = append(dst, v)
	return append(dst, v)
}

//hh:noalloc
func resliceAppend(buf []int) []int {
	out := append(buf[:0], 1)
	return out
}

//hh:noalloc
func strayAppend(dst, src []int) []int {
	tmp := append(src, 1) // want:noalloc "append outside self-assignment"
	return dst[:copy(dst, tmp)]
}

//hh:noalloc
func callsPlain() { inner.Plain() } // want:noalloc "not //hh:noalloc"

//hh:noalloc
func callsChecked() { inner.Checked() }

//hh:noalloc
func boxes(v int) {
	var sink any
	sink = v // want:noalloc "interface boxing"
	_ = sink
}

//hh:noalloc
func waivedMake(n int) []int {
	s := make([]int, n) //hh:allocok fixture demonstrates a reasoned waiver
	return s
}

// scratch mirrors the batch-coalescing buffers (summary.go's
// coalesceScratch): pooled per-shard slice-of-slices grown through
// indexed self-append, and a flat buffer recycled by reslice. Both must stay admissible —
// the contract is amortized-zero growth of storage the scratch owns.
type scratch struct {
	keys  [][]int
	probe []int
}

//hh:noalloc
func (sc *scratch) indexedSelfAppend(si, v int) {
	sc.keys[si] = append(sc.keys[si], v)
}

//hh:noalloc
func (sc *scratch) indexedStrayAppend(si, sj, v int) {
	sc.keys[si] = append(sc.keys[sj], v) // want:noalloc "append outside self-assignment"
}

//hh:noalloc
func (sc *scratch) probePass(items []int) int {
	sc.probe = sc.probe[:0]
	for _, it := range items {
		sc.probe = append(sc.probe, it)
	}
	return len(sc.probe)
}

// keyIndex exercises the annotated-interface-method idiom (the
// arena.Index pattern): a marker on the interface method admits calls
// through the interface from noalloc code, binding every
// implementation to the contract; unannotated methods stay barred.
type keyIndex interface {
	// Get is part of the zero-alloc contract.
	//
	//hh:noalloc
	Get(k string) (int32, bool)
	// Materialize is the export-boundary copy; deliberately unannotated.
	Materialize(k string) string
}

//hh:noalloc
func viaAnnotatedMethod(ix keyIndex) (int32, bool) {
	return ix.Get("k")
}

//hh:noalloc
func viaUnannotatedMethod(ix keyIndex) string {
	return ix.Materialize("k") // want:noalloc "not //hh:noalloc"
}
