package obs

import (
	"bytes"
	"encoding/json"
	"expvar"
	"fmt"
	"math"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("jobs") != c {
		t.Error("same name should return the same counter")
	}
	g := r.Gauge("depth")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Errorf("gauge = %d, want 5", got)
	}
	g.Max(3)
	if got := g.Value(); got != 5 {
		t.Errorf("Max(3) lowered the gauge to %d", got)
	}
	g.Max(9)
	if got := g.Value(); got != 9 {
		t.Errorf("Max(9) = %d, want 9", got)
	}
}

func TestLabelsNormalize(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("stage_us", "stage", "verify", "alg", "greedy")
	b := r.Counter("stage_us", "alg", "greedy", "stage", "verify")
	if a != b {
		t.Error("label order should not distinguish metrics")
	}
	a.Inc()
	snap := r.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d samples, want 1", len(snap))
	}
	if want := "stage_us{alg=greedy,stage=verify}"; snap[0].Name != want {
		t.Errorf("key = %q, want %q", snap[0].Name, want)
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	for _, v := range []int64{1, 9, 10, 50, 99, 70000} {
		h.Observe(v)
	}
	if h.Count() != 6 || h.Sum() != 70169 {
		t.Errorf("count=%d sum=%d, want 6/70169", h.Count(), h.Sum())
	}
	if q := h.Quantile(0.5); q != 16 {
		t.Errorf("p50 = %d, want 16 (bucket upper bound)", q)
	}
	if q := h.Quantile(1.0); q != 70000 {
		t.Errorf("p100 = %d, want observed max 70000", q)
	}
	var empty *Histogram
	if empty.Quantile(0.5) != 0 || empty.Count() != 0 {
		t.Error("nil histogram should read as zero")
	}

	// Every value lands in the least ladder bound it does not exceed:
	// each bound 2^i itself, the value just above it, and values ≤ 1.
	bucket := func(v int64) int64 {
		h := r.Histogram("ladder", "v", fmt.Sprint(v))
		h.Observe(v)
		return h.freeze().Buckets[0].LE
	}
	for _, v := range []int64{math.MinInt64, -3, 0, 1} {
		if le := bucket(v); le != 1 {
			t.Errorf("%d landed in le=%d, want 1", v, le)
		}
	}
	for i := 1; i <= 16; i++ {
		b := int64(1) << i
		if le := bucket(b); le != b {
			t.Errorf("%d landed in le=%d, want %d", b, le, b)
		}
		want := 2 * b
		if i == 16 {
			want = -1 // overflow
		}
		if le := bucket(b + 1); le != want {
			t.Errorf("%d landed in le=%d, want %d", b+1, le, want)
		}
	}
	if le := bucket(math.MaxInt64); le != -1 {
		t.Errorf("MaxInt64 landed in le=%d, want the overflow bucket", le)
	}
}

func TestSnapshotStableOrder(t *testing.T) {
	r := NewRegistry()
	r.Counter("z").Inc()
	r.Gauge("a").Set(1)
	r.Histogram("m").Observe(3)
	s1, _ := json.Marshal(r.Snapshot())
	s2, _ := json.Marshal(r.Snapshot())
	if !bytes.Equal(s1, s2) {
		t.Error("snapshots of an unchanged registry differ")
	}
	snap := r.Snapshot()
	if snap[0].Name != "a" || snap[1].Name != "m" || snap[2].Name != "z" {
		t.Errorf("snapshot not name-sorted: %v", []string{snap[0].Name, snap[1].Name, snap[2].Name})
	}
}

func TestNilRegistry(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(1)
	r.Histogram("z").Observe(1)
	if r.Snapshot() != nil {
		t.Error("nil registry snapshot should be nil")
	}
	r.Publish("nil-registry") // must not panic
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("hits", "worker", "shared").Inc()
				r.Histogram("lat").Observe(int64(i % 64))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits", "worker", "shared").Value(); got != 8000 {
		t.Errorf("concurrent counter = %d, want 8000", got)
	}
	if got := r.Histogram("lat").Count(); got != 8000 {
		t.Errorf("concurrent histogram count = %d, want 8000", got)
	}
}

func TestPublishExpvar(t *testing.T) {
	r := NewRegistry()
	r.Counter("published").Add(42)
	r.Publish("obs-test-registry")
	r.Publish("obs-test-registry") // second publish is a no-op, not a panic
	v := expvar.Get("obs-test-registry")
	if v == nil {
		t.Fatal("registry not published to expvar")
	}
	var snap []Sample
	if err := json.Unmarshal([]byte(v.String()), &snap); err != nil {
		t.Fatalf("expvar value is not a snapshot: %v", err)
	}
	if len(snap) != 1 || snap[0].Value != 42 {
		t.Errorf("expvar snapshot = %+v, want the published counter", snap)
	}
}

func TestQuantiles(t *testing.T) {
	xs := []int64{5, 1, 4, 2, 3}
	q := Quantiles(xs, 0.5, 0.99, 1.0)
	if q[0] != 3 {
		t.Errorf("p50 = %d, want 3", q[0])
	}
	if q[1] != 5 || q[2] != 5 {
		t.Errorf("p99/p100 = %d/%d, want 5/5", q[1], q[2])
	}
	if got := Quantiles(nil, 0.5); got[0] != 0 {
		t.Errorf("empty input p50 = %d, want 0", got[0])
	}
}

// TestHistogramQuantileEdges pins the bucket-quantile semantics the
// ledger and comparator rely on: quantiles return the upper bound of the
// bucket containing the rank, single observations land on their bucket's
// bound, overflow ranks return the observed maximum, and q=1.0 is the
// max for all-overflow histograms.
func TestHistogramQuantileEdges(t *testing.T) {
	r := NewRegistry()

	t.Run("single observation", func(t *testing.T) {
		h := r.Histogram("single")
		h.Observe(5)
		for _, q := range []float64{0, 0.5, 1.0} {
			if got := h.Quantile(q); got != 8 {
				t.Errorf("Quantile(%g) = %d, want 8 (the 4<v<=8 bucket bound)", q, got)
			}
		}
	})

	t.Run("bucket boundaries", func(t *testing.T) {
		h := r.Histogram("bounds")
		for _, v := range []int64{8, 8, 16, 16} {
			h.Observe(v)
		}
		// Ranks 1–2 sit in the le=8 bucket, ranks 3–4 in le=16.
		if got := h.Quantile(0.5); got != 8 {
			t.Errorf("Quantile(0.5) = %d, want 8 (rank 2 is the last le=8 observation)", got)
		}
		if got := h.Quantile(0.75); got != 16 {
			t.Errorf("Quantile(0.75) = %d, want 16 (rank 3 crosses the boundary)", got)
		}
		if got := h.Quantile(1.0); got != 16 {
			t.Errorf("Quantile(1.0) = %d, want 16", got)
		}
	})

	t.Run("all overflow", func(t *testing.T) {
		h := r.Histogram("overflow")
		h.Observe(70000)
		h.Observe(90000)
		for _, tc := range []struct {
			q    float64
			want int64
		}{{0.5, 90000}, {1.0, 90000}} {
			if got := h.Quantile(tc.q); got != tc.want {
				t.Errorf("Quantile(%g) = %d, want observed max %d", tc.q, got, tc.want)
			}
		}
	})

	t.Run("q=1.0 returns observed max from overflow", func(t *testing.T) {
		h := r.Histogram("mixed")
		h.Observe(3)
		h.Observe(70000)
		if got := h.Quantile(1.0); got != 70000 {
			t.Errorf("Quantile(1.0) = %d, want the observed max 70000", got)
		}
	})

	t.Run("empty", func(t *testing.T) {
		h := r.Histogram("empty")
		if got := h.Quantile(0.5); got != 0 {
			t.Errorf("empty histogram Quantile = %d, want 0", got)
		}
	})
}
