package hashing

import "hash/maphash"

// KeyHasher returns the stateless seeded key hash of the counter
// summaries — the one hash family behind shard placement, sketch key
// mapping and the key index of internal/arena: a seeded Fibonacci mix
// for uint64 keys, seeded FNV-1a for strings, and hash/maphash for
// every other comparable type (deterministic within a process,
// randomized across processes — placement never affects correctness,
// only which shard owns an item and where the index probes first).
//
// The maphash branch draws its seed per call, so two separately built
// hashers disagree on such keys. A composition that reuses one hash
// across layers (the partition hash handed down to the index) must
// share the returned closure, not rebuild it.
func KeyHasher[K comparable](seed uint64) func(K) uint64 {
	var zero K
	switch any(zero).(type) {
	case uint64:
		return func(k K) uint64 { return mix64(any(k).(uint64) ^ seed) }
	case string:
		return func(k K) uint64 { return fnv1a(any(k).(string), seed) }
	default:
		mseed := maphash.MakeSeed()
		return func(k K) uint64 { return maphash.Comparable(mseed, k) }
	}
}

//hh:noalloc
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0x9e3779b97f4a7c15
	return x ^ x>>29
}

//hh:noalloc
func fnv1a(s string, seed uint64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset) ^ mix64(seed)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}
