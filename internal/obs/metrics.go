// Package obs is the observability layer of the reproduction, and it
// knows no domain: a lock-free metrics registry (counters, gauges,
// fixed-bucket histograms backed by sync/atomic) with Prometheus and
// expvar exposition, a trace store exporting plain-data run traces as
// JSONL and Chrome trace-event files (loadable in Perfetto /
// chrome://tracing), a run ledger recording registry deltas, and the
// regression gate over ledgers.
//
// Publishers — the engine, the streaming service — write their own
// series into the registry they are handed; obs never names them. The
// ledger and gate read whatever series a run moved, so a new metric is
// recorded and gated with no edit here. Everything is nil-safe: a nil
// *Collector hands out a nil *Registry, whose nil handles are no-ops, so
// observability adds zero allocations to the hot path when not
// requested.
package obs

import (
	"encoding/json"
	"expvar"
	"io"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds d (d may be any sign, but counters are conventionally monotone).
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds d.
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Max raises the gauge to v if v is larger (atomic CAS loop).
func (g *Gauge) Max(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram over the power-of-two ladder
// 1, 2, 4, …, 65536, geometric to suit step-valued quantities (latencies,
// distances) on every topology in the repo: bucket i holds the values in
// (2^(i−1), 2^i], bucket 0 every value ≤ 1, and one overflow bucket the
// values above 65536. Observations are atomic adds; there is no locking
// anywhere on the update path.
type Histogram struct {
	buckets [ladder + 1]atomic.Int64 // last = overflow
	count   atomic.Int64
	sum     atomic.Int64
	max     Gauge
}

// ladder is the number of bounded buckets: bounds 2^0 … 2^16.
const ladder = 17

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	if v > 1 {
		i = min(bits.Len64(uint64(v-1)), ladder) // the least i with v ≤ 2^i
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	h.max.Max(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Quantile estimates the qth quantile (0 < q ≤ 1) as the upper bound of the
// bucket containing it; observations beyond the last bound report the
// observed maximum. Zero when empty.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	return h.freeze().Quantile(q)
}

// freeze returns the histogram's current state with its non-empty
// buckets.
func (h *Histogram) freeze() *HistSnapshot {
	out := &HistSnapshot{Count: h.count.Load(), Sum: h.sum.Load(), Max: h.max.Value()}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			le := int64(-1)
			if i < ladder {
				le = 1 << i
			}
			out.Buckets = append(out.Buckets, Bucket{LE: le, N: n})
		}
	}
	return out
}

// metric is the union stored in a Registry.
type metric struct {
	kind string // "counter" | "gauge" | "histogram"
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// Registry is a named, labeled metric store. Metric handles are created (or
// fetched) with Counter/Gauge/Histogram and then updated with pure atomic
// operations; the registry itself is a sync.Map, so steady-state updates
// take no locks. A nil *Registry is a valid no-op registry.
type Registry struct {
	m       sync.Map // key string -> metric
	publish sync.Once
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// key renders "name{k1=v1,k2=v2}" from alternating key/value label pairs.
// Labels are sorted so the same label set always yields the same key.
func key(name string, labels []string) string {
	if len(labels) == 0 {
		return name
	}
	if len(labels) == 2 { // one concatenation for the per-event hot keys
		return name + "{" + labels[0] + "=" + labels[1] + "}"
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, (len(labels)+1)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	if len(labels)%2 == 1 { // dangling key: keep it visible rather than drop it
		pairs = append(pairs, kv{labels[len(labels)-1], ""})
	}
	slices.SortFunc(pairs, func(a, b kv) int { return strings.Compare(a.k, b.k) })
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(p.k)
		sb.WriteByte('=')
		sb.WriteString(p.v)
	}
	sb.WriteByte('}')
	return sb.String()
}

// Counter returns the counter registered under name and labels (alternating
// key/value pairs), creating it on first use. Nil registry → nil counter
// (whose methods are no-ops).
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	k := key(name, labels)
	if m, ok := r.m.Load(k); ok {
		return m.(metric).c
	}
	m, _ := r.m.LoadOrStore(k, metric{kind: "counter", c: &Counter{}})
	return m.(metric).c
}

// Gauge returns the gauge registered under name and labels, creating it on
// first use.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	k := key(name, labels)
	if m, ok := r.m.Load(k); ok {
		return m.(metric).g
	}
	m, _ := r.m.LoadOrStore(k, metric{kind: "gauge", g: &Gauge{}})
	return m.(metric).g
}

// Histogram returns the histogram registered under name and labels,
// creating it on first use.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	k := key(name, labels)
	if m, ok := r.m.Load(k); ok {
		return m.(metric).h
	}
	m, _ := r.m.LoadOrStore(k, metric{kind: "histogram", h: &Histogram{}})
	return m.(metric).h
}

// Bucket is one histogram bucket in a snapshot.
type Bucket struct {
	// LE is the inclusive upper bound (-1 for the overflow bucket).
	LE int64 `json:"le"`
	// N is the number of observations in the bucket.
	N int64 `json:"n"`
}

// Sample is one metric in a snapshot.
type Sample struct {
	// Name is the full key, "name{k=v,...}".
	Name string `json:"name"`
	// Kind is "counter", "gauge", or "histogram".
	Kind string `json:"kind"`
	// Value is the counter/gauge value (histograms use the fields below).
	Value int64 `json:"value,omitempty"`
	// Count/Sum/Max/P50/P90/P99 summarize a histogram.
	Count int64 `json:"count,omitempty"`
	Sum   int64 `json:"sum,omitempty"`
	Max   int64 `json:"max,omitempty"`
	P50   int64 `json:"p50,omitempty"`
	P90   int64 `json:"p90,omitempty"`
	P99   int64 `json:"p99,omitempty"`
	// Buckets holds the non-empty buckets of a histogram.
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot returns every registered metric, sorted by name, so the JSON
// rendering of a snapshot is stable across runs and worker counts.
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	var out []Sample
	r.m.Range(func(k, v any) bool {
		m := v.(metric)
		s := Sample{Name: k.(string), Kind: m.kind}
		switch m.kind {
		case "counter":
			s.Value = m.c.Value()
		case "gauge":
			s.Value = m.g.Value()
		case "histogram":
			h := m.h.freeze()
			s.Count, s.Sum, s.Max, s.Buckets = h.Count, h.Sum, h.Max, h.Buckets
			s.P50, s.P90, s.P99 = h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99)
		}
		out = append(out, s)
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WriteJSON writes the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// Publish exposes the registry under the given expvar name (served at
// /debug/vars). Publishing twice, or under a name already taken, is a
// no-op rather than the expvar panic.
func (r *Registry) Publish(name string) {
	if r == nil {
		return
	}
	r.publish.Do(func() {
		if expvar.Get(name) != nil {
			return
		}
		expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
	})
}

// Quantiles returns the requested quantiles (0 < q ≤ 1) of xs using the
// nearest-rank method on a sorted copy. Zero-length input yields zeros.
// Exported for callers (experiment tables) that need exact small-sample
// percentiles rather than bucketed histogram estimates.
func Quantiles(xs []int64, qs ...float64) []int64 {
	out := make([]int64, len(qs))
	if len(xs) == 0 {
		return out
	}
	sorted := make([]int64, len(xs))
	copy(sorted, xs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i, q := range qs {
		rank := int(q*float64(len(sorted)) + 0.5)
		if rank < 1 {
			rank = 1
		}
		if rank > len(sorted) {
			rank = len(sorted)
		}
		out[i] = sorted[rank-1]
	}
	return out
}
