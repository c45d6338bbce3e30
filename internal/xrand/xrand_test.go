package xrand

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestDeriveDeterministic(t *testing.T) {
	a := Derive(42, "grid", "n=32")
	b := Derive(42, "grid", "n=32")
	if a != b {
		t.Fatal("same labels gave different seeds")
	}
}

func TestDeriveSeparatesLabels(t *testing.T) {
	if Derive(1, "ab", "c") == Derive(1, "a", "bc") {
		t.Fatal("label concatenation collision")
	}
	if Derive(1, "x") == Derive(2, "x") {
		t.Fatal("root seed ignored")
	}
	if Derive(1, "x") == Derive(1, "y") {
		t.Fatal("labels ignored")
	}
}

func TestNewDerivedStreamsDiffer(t *testing.T) {
	r1 := NewDerived(7, "a")
	r2 := NewDerived(7, "b")
	same := true
	for i := 0; i < 8; i++ {
		if r1.Int63() != r2.Int63() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("derived streams identical for distinct labels")
	}
}

func TestSampleKProperties(t *testing.T) {
	check := func(seed int64) bool {
		r := New(seed)
		n := 1 + int(uint(seed)%50)
		k := int(uint(seed/3) % uint(n+1))
		s := SampleK(r, n, k)
		if len(s) != k {
			return false
		}
		seen := make(map[int]bool, k)
		for _, x := range s {
			if x < 0 || x >= n || seen[x] {
				return false
			}
			seen[x] = true
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleKFull(t *testing.T) {
	r := New(1)
	s := SampleK(r, 5, 5)
	seen := make(map[int]bool)
	for _, x := range s {
		seen[x] = true
	}
	if len(seen) != 5 {
		t.Fatalf("SampleK(5,5) = %v, not a permutation", s)
	}
}

func TestSampleKPanics(t *testing.T) {
	r := New(1)
	t.Run("k>n", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("no panic for k > n")
			}
		}()
		SampleK(r, 2, 3)
	})
	t.Run("negative", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("no panic for negative k")
			}
		}()
		SampleK(r, 2, -1)
	})
}

func TestSampleKUniformish(t *testing.T) {
	// Every element of [0,8) should be sampled roughly equally often.
	r := New(99)
	counts := make([]int, 8)
	const trials = 4000
	for i := 0; i < trials; i++ {
		for _, x := range SampleK(r, 8, 2) {
			counts[x]++
		}
	}
	want := trials * 2 / 8
	for x, c := range counts {
		if c < want/2 || c > want*2 {
			t.Fatalf("element %d sampled %d times, expected ≈%d", x, c, want)
		}
	}
}

func TestShuffle(t *testing.T) {
	r := New(3)
	s := []int{0, 1, 2, 3, 4, 5, 6, 7}
	Shuffle(r, s)
	sum := 0
	for _, x := range s {
		sum += x
	}
	if sum != 28 {
		t.Fatalf("shuffle lost elements: %v", s)
	}
}

func TestGeometricGapMeanAndClamp(t *testing.T) {
	r := New(17)
	// Gaps are ≥ 1 with mean 1/p; a fixed seed makes the check exact.
	for _, rate := range []float64{0.1, 0.5, 0.9} {
		const samples = 20000
		var sum int64
		for i := 0; i < samples; i++ {
			g := GeometricGap(r, rate)
			if g < 1 {
				t.Fatalf("rate %v: gap %d < 1", rate, g)
			}
			sum += g
		}
		mean := float64(sum) / samples
		if want := 1 / rate; mean < 0.97*want || mean > 1.03*want {
			t.Fatalf("rate %v: mean gap %v, want ≈ %v", rate, mean, want)
		}
	}
	// Rates ≥ 1 clamp to one arrival per step: the gap is exactly 1.
	for i := 0; i < 100; i++ {
		if g := GeometricGap(r, 2.5); g != 1 {
			t.Fatalf("rate 2.5: gap %d, want 1", g)
		}
	}
}

func TestGeometricGapPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on rate 0")
		}
	}()
	GeometricGap(New(1), 0)
}

func TestKeyMatchesDerive(t *testing.T) {
	for _, v := range []int64{0, 7, -3, 1 << 40, math.MinInt64, math.MaxInt64} {
		want := Derive(v, "faults", "link-down", fmt.Sprint(v), "0", "chunk", fmt.Sprint(-v))
		got := NewKey(v).Label("faults").Label("link-down").Int(v).Int(0).Label("chunk").Int(-v).Seed()
		if got != want {
			t.Fatalf("root %d: key %d, Derive %d", v, got, want)
		}
	}
	site := NewKey(5).Label("x").Int(12)
	if a := testing.AllocsPerRun(100, func() { site.Label("chunk").Int(math.MinInt64).Seed() }); a != 0 {
		t.Fatalf("key extension allocates %v times, want 0", a)
	}
}
