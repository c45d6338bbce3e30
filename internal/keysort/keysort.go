// Package keysort orders indices by small integer keys with a stable
// counting sort: O(n + span) for n keys spanning span values, against a
// comparison sort's O(n log n). The Definition 1 sweep (keys are commit
// steps) and the pipelined schedulers' list order (keys are colors
// k·h_max + 1) both order a few dozen members over a short range. Callers
// decide with Fits, count on a stack array of StackSpan + 1 entries (or on
// scratch they already own), and fall back to a comparison sort otherwise.
package keysort

// StackSpan is the widest key span a caller counts on a stack array
// ([StackSpan + 1]int32, about 1 KiB), so that counting allocates nothing.
// It covers a serving window on a 16×16 grid (node span ≤ 256, step and
// color spans a few per member). A larger array costs more than it saves:
// a 4 KiB frame pushed the serving goroutines past their stack size, so
// each regrew (copied) its stack after every collection shrank it.
const StackSpan = 256

// Fits reports whether n keys spanning span values (max − min + 1) count
// cheaper than they compare. A counting pass does a few simple operations
// per key and per slot of the span; a comparison sort does about log₂ n
// indirect compares per key. Up to 16 slots per key the first stays the
// cheaper on the member counts the schedulers see. A span that overflowed
// int64 (keys at both extremes) reads as non-positive and never fits.
func Fits(span int64, n int) bool {
	return span > 0 && span <= 16*int64(n)
}

// Stable writes 0..len(keys)−1 into order, sorted by keys[i] with ties in
// ascending index. Every key must lie in [lo, lo + len(counts) − 1), and
// counts must be zeroed.
func Stable[I ~int](order []I, keys []int64, lo int64, counts []int32) {
	for _, k := range keys {
		counts[k-lo+1]++
	}
	for b := 1; b < len(counts); b++ {
		counts[b] += counts[b-1]
	}
	for i, k := range keys {
		b := k - lo
		order[counts[b]] = I(i)
		counts[b]++
	}
}
