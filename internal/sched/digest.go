package sched

import (
	"hash/fnv"
	"strconv"
)

// Digest returns a 64-bit FNV-1a fingerprint of a type schedule. Two
// schedules with the same sequence of kinds share a digest; a NUL byte
// terminates each element so element boundaries are unambiguous (callback
// kinds are short printable identifiers and never contain NUL).
//
// Digests give the campaign corpus O(1) exact-duplicate detection before it
// pays for the Levenshtein novelty computation.
func Digest(types []string) uint64 {
	h := fnv.New64a()
	for _, s := range types {
		_, _ = h.Write([]byte(s))
		_, _ = h.Write([]byte{0})
	}
	return h.Sum64()
}

// DigestString renders a digest as fixed-width hex, the form stored in
// campaign checkpoint journals (JSON numbers lose precision above 2^53 in
// some consumers; strings are unambiguous everywhere).
func DigestString(d uint64) string {
	s := strconv.FormatUint(d, 16)
	for len(s) < 16 {
		s = "0" + s
	}
	return s
}

// NearestNLD returns the minimum normalized Levenshtein distance from types
// to any schedule in pool, and the index of that nearest neighbour. An empty
// pool has distance 1 (maximally novel) and index -1.
func NearestNLD(types []string, pool [][]string) (float64, int) {
	best, idx := 1.0, -1
	for i, p := range pool {
		d := NormalizedLevenshtein(types, p)
		if idx == -1 || d < best {
			best, idx = d, i
		}
	}
	if idx == -1 {
		return 1, -1
	}
	return best, idx
}
