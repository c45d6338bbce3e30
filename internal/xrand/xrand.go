// Package xrand provides deterministic, splittable pseudo-random streams
// for experiments. Every randomized component of the library takes an
// explicit *rand.Rand; this package standardizes how those are derived so
// that an experiment cell (topology, n, k, trial) always sees the same
// stream regardless of execution order or parallelism.
package xrand

import (
	"math/rand"
	"strconv"
)

// DefaultSeed is the root seed used by benches and examples when the caller
// does not supply one.
const DefaultSeed = 0x5eed_d7a1

// New returns a *rand.Rand seeded with seed.
func New(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Derive deterministically derives a child seed from a root seed and a
// label path (e.g. "grid", "n=32", "k=4", "trial=7"). Two distinct label
// paths give independent-looking streams; the same path always gives the
// same stream.
func Derive(root int64, labels ...string) int64 {
	k := NewKey(root)
	for _, l := range labels {
		k = k.Label(l)
	}
	return k.Seed()
}

// Key is a Derive label path hashed so far: FNV-1a over the root's eight
// little-endian bytes, then a 0xff separator (so ("ab","c") != ("a","bc"))
// and the bytes of each label. It is a plain value, so a shared prefix is
// hashed once and extended per use, and no step allocates:
// NewKey(root).Label(a).Int(7).Seed() == Derive(root, a, "7").
type Key uint64

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// NewKey starts a label path at root.
func NewKey(root int64) Key { return Key(fnvWord(fnvOffset, root)) }

// Label appends one label.
func (k Key) Label(l string) Key {
	h := (uint64(k) ^ 0xff) * fnvPrime
	for i := 0; i < len(l); i++ {
		h = (h ^ uint64(l[i])) * fnvPrime
	}
	return Key(h)
}

// Int appends v's decimal spelling as a label, as fmt.Sprint(v) spells it.
func (k Key) Int(v int64) Key {
	var buf [20]byte
	return k.Label(string(strconv.AppendInt(buf[:0], v, 10)))
}

// Word appends v's eight little-endian bytes as a label.
func (k Key) Word(v int64) Key { return Key(fnvWord((uint64(k)^0xff)*fnvPrime, v)) }

// fnvWord hashes v's eight little-endian bytes into h.
func fnvWord(h uint64, v int64) uint64 {
	u := uint64(v)
	for i := 0; i < 8; i++ {
		h = (h ^ u&0xff) * fnvPrime
		u >>= 8
	}
	return h
}

// Seed returns the path's derived seed.
func (k Key) Seed() int64 { return int64(k) }

// NewDerived is New(Derive(root, labels...)).
func NewDerived(root int64, labels ...string) *rand.Rand {
	return New(Derive(root, labels...))
}

// GeometricGap samples a discrete inter-arrival gap for a Bernoulli
// (discrete-time Poisson) arrival process of the given rate: the number
// of per-step coin flips with success probability p = min(rate, 1) up to
// and including the first success. Gaps are therefore ≥ 1 with mean
// exactly 1/p steps, so a stream of arrivals spaced by GeometricGap
// realizes its nominal rate (rates ≥ 1 clamp to one arrival per step).
// It panics on non-positive rates.
func GeometricGap(r *rand.Rand, rate float64) int64 {
	if rate <= 0 {
		panic("xrand: non-positive arrival rate")
	}
	p := rate
	if p > 1 {
		p = 1
	}
	var gap int64 = 1
	for r.Float64() > p {
		gap++
	}
	return gap
}

// SampleK returns k distinct integers from [0, n) chosen uniformly at
// random (a uniform k-subset, as the Grid scheduling problem requires).
// It panics if k > n. The result is in selection order, not sorted.
func SampleK(r *rand.Rand, n, k int) []int {
	if k > n {
		panic("xrand: sample larger than population")
	}
	if k < 0 {
		panic("xrand: negative sample size")
	}
	// Floyd's algorithm: O(k) expected time, O(k) space.
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := r.Intn(j + 1)
		if _, dup := chosen[t]; dup {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	return out
}

// Shuffle shuffles s in place.
func Shuffle[T any](r *rand.Rand, s []T) {
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
}
