package obs_test

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"dtmsched/internal/obs"
)

// promRegistry builds a synthetic registry covering every exposition
// shape: bare and labeled counters, a gauge, and histograms with and
// without labels, with and without overflow observations. Synthetic
// because wall-time counters from a real run are nondeterministic, and
// the golden test pins exact bytes.
func promRegistry() *obs.Registry {
	r := obs.NewRegistry()
	r.Counter("jobs_total").Add(5)
	r.Counter("engine_stage_wall_us", "stage", "schedule").Add(1200)
	r.Counter("engine_stage_wall_us", "stage", "verify").Add(340)
	r.Gauge("queue_depth").Set(3)
	h := r.Histogram("txn_latency_steps")
	for _, v := range []int64{1, 2, 3, 5, 9, 100, 200000} {
		h.Observe(v) // 200000 overflows the default 65536 ladder
	}
	hg := r.Histogram("move_dist", "topo", "grid")
	for _, v := range []int64{1, 4, 4, 7} {
		hg.Observe(v)
	}
	return r
}

// TestPromGolden pins the Prometheus exposition byte-for-byte.
// Regenerate with `go test ./internal/obs -run TestPromGolden -update`.
func TestPromGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := promRegistry().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden.prom")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("prom exposition drifted from %s:\n--- got ---\n%s--- want ---\n%s", golden, buf.Bytes(), want)
	}
}

// TestPromDeterministic renders the same logical state twice — once from
// one registry scraped twice, once from an independently built registry —
// and requires byte-identical output each time.
func TestPromDeterministic(t *testing.T) {
	r := promRegistry()
	var a, b, c bytes.Buffer
	if err := r.WriteProm(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two scrapes of one registry differ")
	}
	if err := promRegistry().WriteProm(&c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Error("independently built registries render differently")
	}
}

var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?\d+$`)

// TestPromParseable validates the exposition against the text-format
// contract a Prometheus scraper relies on: every sample line parses,
// every family has exactly one # TYPE line before its samples, histogram
// buckets are cumulative and monotone, and the terminal +Inf bucket
// equals _count.
func TestPromParseable(t *testing.T) {
	var buf bytes.Buffer
	if err := promRegistry().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	typed := map[string]bool{}
	lastBucket := map[string]int64{} // family|labels-minus-le → last cumulative value
	infValue := map[string]int64{}
	countValue := map[string]int64{}
	for _, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			if typed[parts[2]] {
				t.Errorf("duplicate # TYPE for %s", parts[2])
			}
			typed[parts[2]] = true
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("sample line does not parse: %q", line)
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseInt(line[sp+1:], 10, 64)
		if err != nil {
			t.Fatalf("value of %q: %v", line, err)
		}
		name, labels := line[:sp], ""
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name, labels = name[:i], strings.TrimSuffix(line[i+1:sp], "}")
		}
		switch {
		case strings.HasSuffix(name, "_bucket"):
			fam := strings.TrimSuffix(name, "_bucket")
			var rest []string
			le := ""
			for _, p := range strings.Split(labels, ",") {
				if strings.HasPrefix(p, `le="`) {
					le = strings.TrimSuffix(strings.TrimPrefix(p, `le="`), `"`)
				} else {
					rest = append(rest, p)
				}
			}
			if le == "" {
				t.Errorf("bucket line without le label: %q", line)
			}
			key := fam + "|" + strings.Join(rest, ",")
			if v < lastBucket[key] {
				t.Errorf("bucket series %q not cumulative: %d after %d", key, v, lastBucket[key])
			}
			lastBucket[key] = v
			if le == "+Inf" {
				infValue[key] = v
			}
		case strings.HasSuffix(name, "_count"):
			countValue[strings.TrimSuffix(name, "_count")+"|"+labels] = v
		}
		fam := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			fam = strings.TrimSuffix(fam, suffix)
		}
		if !typed[fam] {
			t.Errorf("sample %q precedes its # TYPE line", line)
		}
	}
	if len(infValue) != 2 {
		t.Fatalf("found %d +Inf bucket series, want 2 (both histograms)", len(infValue))
	}
	for key, inf := range infValue {
		count, ok := countValue[key]
		if !ok {
			t.Errorf("histogram series %q has buckets but no _count", key)
			continue
		}
		if inf != count {
			t.Errorf("series %q: +Inf bucket %d != _count %d", key, inf, count)
		}
	}
}

// TestRegistryUpdateZeroAllocDuringScrape guards the hot path: registry
// updates must stay allocation-free while a scrape holds a snapshot of
// the same registry mid-flight. The render itself happens outside the
// measured window because AllocsPerRun counts process-wide allocations.
func TestRegistryUpdateZeroAllocDuringScrape(t *testing.T) {
	r := promRegistry()
	c := r.Counter("jobs_total")
	g := r.Gauge("queue_depth")
	h := r.Histogram("txn_latency_steps")

	snap := r.Snapshot() // scrape begins: snapshot taken, not yet rendered
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(9)
		h.Observe(17)
	})
	if err := obs.WriteProm(io.Discard, snap); err != nil { // scrape completes
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("registry updates allocate %.1f allocs/op during a scrape, want 0", allocs)
	}
}

// TestMetricsHandlerFormats pins the /metrics contract: JSON by default
// with the right Content-Type, Prometheus text for ?format=prom, and a
// 400 — not silent JSON — for unknown formats.
func TestMetricsHandlerFormats(t *testing.T) {
	col := obs.NewMetricsCollector()
	col.Registry().Counter("jobs_total").Inc()
	handler := col.MetricsHandler()

	get := func(url string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		handler(rec, httptest.NewRequest(http.MethodGet, url, nil))
		return rec
	}

	rec := get("/metrics")
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
		t.Errorf("default: code %d type %q, want 200 application/json", rec.Code, rec.Header().Get("Content-Type"))
	}
	if !strings.Contains(rec.Body.String(), "jobs_total") {
		t.Error("JSON body missing the counter")
	}
	if got := get("/metrics?format=json"); got.Code != http.StatusOK {
		t.Errorf("format=json: code %d, want 200", got.Code)
	}

	rec = get("/metrics?format=prom")
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != obs.PromContentType {
		t.Errorf("prom: code %d type %q, want 200 %q", rec.Code, rec.Header().Get("Content-Type"), obs.PromContentType)
	}
	if !strings.Contains(rec.Body.String(), "# TYPE jobs_total counter") {
		t.Errorf("prom body missing the TYPE line:\n%s", rec.Body.String())
	}

	rec = get("/metrics?format=xml")
	if rec.Code != http.StatusBadRequest {
		t.Errorf("unknown format: code %d, want 400", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "xml") {
		t.Error("400 body should name the rejected format")
	}
}
