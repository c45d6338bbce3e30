package xrand

import "math/rand"

// math/rand's source (the additive lagged-Fibonacci generator of Mitchell
// and Reeds) seeds its 607-word register vec from the Lehmer LCG
// x ← 48271·x mod (2³¹−1), started at the normalised seed x₀:
//
//	vec[i] = (x₂₁₊₃ᵢ<<40 ^ x₂₂₊₃ᵢ<<20 ^ x₂₃₊₃ᵢ) ^ rngCooked[i]
//
// Draw j < 273 returns vec[333−j] + vec[606−j] and reads no word an
// earlier draw wrote. Because xₙ = x₀·48271ⁿ mod (2³¹−1), each early draw
// needs only its two register words, reached by one multiply each instead
// of building all 607. Go 1 fixes seeded math/rand sequences, so these
// constants cannot drift.
const (
	lcgMod    = 1<<31 - 1
	lcgMul    = 48271
	jumpDraws = 8 // draws served by jumping; later ones replay math/rand
)

// jumpCooked[0][j] is rngCooked[333−j] and jumpCooked[1][j] is
// rngCooked[606−j], copied from Go's src/math/rand/rng.go (Copyright 2009
// The Go Authors; BSD-style licence).
var jumpCooked = [2][jumpDraws]int64{
	{-4633371852008891965, 4287360518296753003, -1072987336855386047, 220828013409515943,
		-7602572252857820065, -4799698790548231394, 3648778920718647903, 581945337509520675},
	{4152330101494654406, 9103922860780351547, 8382142935188824023, -2171292963361310674,
		-6278469401177312761, -307900319840287220, -1894351639983151068, -758328221503023383},
}

// jumpPow[k][j] is 48271^(21+3i) mod (2³¹−1) for the register index i of
// jumpCooked[k][j]: the LCG multiplier from x₀ to that word's first state.
var jumpPow = func() (p [2][jumpDraws]uint64) {
	for j := 0; j < jumpDraws; j++ {
		for k, i := range [2]int{333 - j, 606 - j} {
			p[k][j] = 1
			for e, b := 21+3*i, uint64(lcgMul); e > 0; e, b = e>>1, b*b%lcgMod {
				if e&1 == 1 {
					p[k][j] = p[k][j] * b % lcgMod
				}
			}
		}
	}
	return p
}()

// JumpSource is a rand.Source64 whose draws equal rand.NewSource(seed)'s
// draw for draw, for every seed. Its first jumpDraws draws are computed
// straight from the seed, so seeding costs a few integer operations and
// no allocation instead of math/rand's 607-word fill. The draw after them
// seeds a real math/rand source (allocated once, then reused across Seed
// calls) and advances it past the draws already made. It suits streams
// that are reseeded often and drawn from a few times, such as per-site
// fault draws. A JumpSource is not safe for concurrent use.
type JumpSource struct {
	seed int64         // as passed to Seed, for the fallback
	x0   uint64        // normalised LCG state, in [1, 2³¹−2]
	n    int           // draws since Seed, capped at jumpDraws+1
	slow rand.Source64 // math/rand past jumpDraws draws
}

// NewJumpSource returns a JumpSource seeded with seed.
func NewJumpSource(seed int64) *JumpSource {
	s := &JumpSource{}
	s.Seed(seed)
	return s
}

// Seed implements rand.Source. It normalises seed as math/rand does,
// including the 89482311 stand-in for multiples of 2³¹−1.
func (s *JumpSource) Seed(seed int64) {
	x := seed % lcgMod
	if x < 0 {
		x += lcgMod
	}
	if x == 0 {
		x = 89482311
	}
	s.seed, s.x0, s.n = seed, uint64(x), 0
}

// Int63 implements rand.Source.
func (s *JumpSource) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// Uint64 implements rand.Source64.
func (s *JumpSource) Uint64() uint64 {
	if j := s.n; j < jumpDraws {
		s.n++
		return uint64(s.word(0, j) + s.word(1, j))
	}
	if s.n == jumpDraws {
		if s.slow == nil {
			s.slow = rand.NewSource(s.seed).(rand.Source64)
		} else {
			s.slow.Seed(s.seed)
		}
		for i := 0; i < jumpDraws; i++ {
			s.slow.Uint64()
		}
		s.n++
	}
	return s.slow.Uint64()
}

// word returns the register word that jumpCooked[k][j] belongs to.
func (s *JumpSource) word(k, j int) int64 {
	x := s.x0 * jumpPow[k][j] % lcgMod
	u := int64(x) << 40
	x = x * lcgMul % lcgMod
	u ^= int64(x) << 20
	x = x * lcgMul % lcgMod
	return (u ^ int64(x)) ^ jumpCooked[k][j]
}
