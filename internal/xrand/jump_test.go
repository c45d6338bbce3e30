package xrand

import (
	"math"
	"math/rand"
	"testing"
)

// jumpSeeds are the seeds math/rand normalises specially: 0 and every
// multiple of 2³¹−1 become 89482311, and negatives wrap.
var jumpSeeds = []int64{
	0, 1, -1, 2, 42, 89482311, lcgMod, -lcgMod, 2 * lcgMod, lcgMod - 1, lcgMod + 1,
	math.MaxInt64, math.MinInt64, math.MinInt64 + 1, -(math.MaxInt64 / lcgMod) * lcgMod,
	DefaultSeed, Derive(1, "faults"),
}

// checkJumpMatches drives a JumpSource-backed Rand and math/rand's own
// through one op sequence. Each op byte picks a method or a reseed of
// both, so the draws served by jumping, the fallback past them, and
// reseeds after a fallback are all compared.
func checkJumpMatches(t *testing.T, seed int64, ops []byte) {
	t.Helper()
	got := rand.New(NewJumpSource(seed))
	want := rand.New(rand.NewSource(seed))
	for i, op := range ops {
		var g, w any
		switch op % 8 {
		case 0:
			g, w = got.Float64(), want.Float64()
		case 1: // Int63n's 63-bit rejection loop with a small bound
			n := int64(op)*7919 + 3
			g, w = got.Int63n(n), want.Int63n(n)
		case 2: // a bound above 2³¹, where Intn leaves Int31n for Int63n
			n := int64(1)<<40 + int64(op)
			g, w = got.Intn(int(n)), want.Intn(int(n))
		case 3: // Int31n's rejection loop, with a bound that rejects half the draws
			n := int32(1<<30 + 1)
			g, w = got.Int31n(n), want.Int31n(n)
		case 4:
			g, w = got.Uint64(), want.Uint64()
		case 5:
			g, w = got.Int63(), want.Int63()
		case 6: // a power-of-two bound: the masked path
			g, w = got.Int63n(1<<20), want.Int63n(1<<20)
		case 7:
			s := seed ^ int64(op)<<33 ^ int64(i)
			got.Seed(s)
			want.Seed(s)
			continue
		}
		if g != w {
			t.Fatalf("seed %d, op %d (%d): got %v, math/rand %v", seed, i, op%8, g, w)
		}
	}
}

func TestJumpSourceMatchesMathRand(t *testing.T) {
	// Every op kind, run well past the jumped draws, then a reseed and
	// another pass so the reused fallback source is exercised too.
	var ops []byte
	for pass := 0; pass < 2; pass++ {
		for op := byte(0); op < 7; op++ {
			for i := 0; i < 3; i++ {
				ops = append(ops, op+8*byte(i))
			}
		}
		ops = append(ops, 7)
	}
	for _, seed := range jumpSeeds {
		checkJumpMatches(t, seed, ops)
	}
	r := rand.New(rand.NewSource(20260))
	for i := 0; i < 2000; i++ {
		checkJumpMatches(t, r.Int63()-r.Int63(), ops[:1+r.Intn(len(ops))])
	}
}

func TestJumpSourceSeedAllocFree(t *testing.T) {
	// The chaos-plan pattern: reseed, then draw a few values. Past the
	// first fallback, even a reseed that falls back again reuses the
	// math/rand source it already built.
	src := NewJumpSource(1)
	r := rand.New(src)
	var s int64
	if a := testing.AllocsPerRun(200, func() {
		s++
		r.Seed(NewKey(s).Int(s).Seed())
		r.Float64()
		r.Int63n(1000)
		r.Int63n(77)
	}); a != 0 {
		t.Fatalf("reseed and three draws allocate %v times, want 0", a)
	}
	for i := 0; i <= jumpDraws; i++ {
		r.Uint64()
	}
	if a := testing.AllocsPerRun(20, func() {
		r.Seed(s)
		for i := 0; i <= jumpDraws; i++ {
			r.Uint64()
		}
	}); a != 0 {
		t.Fatalf("fallback after the first allocates %v times, want 0", a)
	}
}

func FuzzJumpSource(f *testing.F) {
	for i, seed := range jumpSeeds {
		f.Add(seed, []byte{0, 1, 2, 3, 4, 5, 6, 8, 9, 10, byte(i), 7, 0, 12, 4})
	}
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		checkJumpMatches(t, seed, ops)
	})
}

func BenchmarkSeedAndDraw(b *testing.B) {
	b.Run("jump", func(b *testing.B) {
		r := rand.New(NewJumpSource(0))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Seed(int64(i))
			r.Float64()
			r.Int63n(256)
			r.Int63n(500)
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := rand.New(rand.NewSource(int64(i)))
			r.Float64()
			r.Int63n(256)
			r.Int63n(500)
		}
	})
}
