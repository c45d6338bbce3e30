package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"dtmsched/internal/stream"
	"dtmsched/internal/tm"
	"dtmsched/internal/xrand"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n, want int
		ok      bool
	}{
		{19, 0, false},
		{20, 500, true},
		{100, 900, true},
		{600, 980, true},
		{3000, 990, true},
		{10000, 999, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %d, %v; want %d, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && c.n-rank(got, c.n) < 10 {
			t.Errorf("n=%d: p%d leaves %d samples beyond it", c.n, got, c.n-rank(got, c.n))
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if p50, p98 := percentile(xs, 500), percentile(xs, 980); p50 != 50 || p98 != 98 {
		t.Errorf("percentiles of 1..100: p50 %v p98 %v, want 50 and 98", p50, p98)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

// The pre-generated slice source must feed Serve exactly the stream
// stream.NewGenerator produces from the same rng, with and without chaos.
func TestSliceSourceMatchesGenerator(t *testing.T) {
	for _, name := range []string{"serve-steady", "serve-chaos"} {
		wl, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		spec := *wl.Serve
		spec.Txns = 3000
		e := newServeEnv(name, &spec, 7)
		items, homes, err := e.input("0", spec.Txns)
		if err != nil {
			t.Fatal(err)
		}
		pre, err := e.serve(context.Background(), "0", &sliceSource{items: items}, spec.Txns, homes, nil)
		if err != nil {
			t.Fatal(err)
		}
		gen := stream.NewGenerator(xrand.New(xrand.Derive(7, "serve", spec.Topo, "0")), e.g,
			tm.UniformK(spec.W, spec.K), spec.Rate, spec.Txns)
		live, err := e.serve(context.Background(), "0", gen, spec.Txns, homes, nil)
		if err != nil {
			t.Fatal(err)
		}
		if pre.res.Digest != live.res.Digest || pre.res.Committed != int64(spec.Txns) {
			t.Errorf("%s: slice source digest %016x (%d committed), generator %016x",
				name, pre.res.Digest, pre.res.Committed, live.res.Digest)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{SpanID: 1, Name: "root", Start: 0, End: 100},
		{SpanID: 2, ParentID: 1, Name: "a", Start: 10, End: 40},
		{SpanID: 3, ParentID: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{SpanID: 4, ParentID: 1, Name: "c", Start: 90, End: 120}, // sticks out of root
		{SpanID: 5, ParentID: 2, Name: "a1", Start: 15, End: 25},
	}
	want := []int64{40, 20, 30, 30, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}

	tr := &tracer{}
	root := tr.add(1, 0, "bench.job", 0, 100, false)
	kid := tr.add(1, root, "engine.run", -5, 120, false)
	if s := tr.spans[kid-1]; s.Start != 0 || s.End != 100 {
		t.Errorf("child not clamped to its parent: [%d, %d]", s.Start, s.End)
	}
	tr.add(1, kid, "engine.measure", 5, 100, false)
	st := totals(tr.spans)
	if st.roots != 1 || st.dur["engine.run"] != 100 || st.self["engine.run"] != 5 || st.minCoverage != 0.95 {
		t.Errorf("totals = %+v, want one root, engine.run 100 ns with 5 ns self, coverage 0.95", st)
	}
}

func TestVerdict(t *testing.T) {
	def := bound{Name: "txn_per_s", Better: "higher", Bound: 0.1}
	base := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		b    []float64
		want string
	}{
		{[]float64{100, 99, 101, 100, 100}, "same"},
		{[]float64{80, 81, 79, 80, 82}, "worse"},
		{[]float64{130, 129, 131, 130, 128}, "better"},
		{[]float64{60, 100, 140, 100, 90}, "unresolved"},
	} {
		if got, _ := verdict(def, base, c.b); got != c.want {
			t.Errorf("verdict(%v) = %s, want %s", c.b, got, c.want)
		}
	}
}

// catalog is BENCHMARK.json's metric lists.
type catalog struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []metricDef             `json:"end_to_end"`
	PerLayer  []metricDef             `json:"per_layer"`
}

func readCatalog(t *testing.T) catalog {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c catalog
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// BENCHMARK.json and the program must name the same workloads and
// metrics, with the same units and directions.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	c := readCatalog(t)
	var names []string
	for _, w := range c.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads() {
		have = append(have, w.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(have) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, have)
	}
	for _, l := range []struct {
		json, code []metricDef
	}{{c.EndToEnd, endToEnd}, {c.PerLayer, perLayer}} {
		if len(l.json) != len(l.code) {
			t.Errorf("BENCHMARK.json lists %d metrics, program %d", len(l.json), len(l.code))
			continue
		}
		for i, m := range l.json {
			d := l.code[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("BENCHMARK.json %s %s %s, program %s %s %s", m.Name, m.Unit, m.Better, d.Name, d.Unit, d.Better)
			}
		}
	}
}

// A ~1% run of every workload, traced, prints every metric of
// BENCHMARK.json by name with its unit, and passes its own checks.
func TestSmoke(t *testing.T) {
	c := readCatalog(t)
	for _, wl := range workloads() {
		rec, err := run(context.Background(), runOptions{Workload: wl, Seed: 3, Trace: true, Smoke: true})
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		var out bytes.Buffer
		rec.report(&out)
		if !rec.Correct || rec.Failed != 0 {
			t.Errorf("%s: correct %v, failed %d:\n%s", wl.Name, rec.Correct, rec.Failed, out.String())
		}
		for _, l := range []struct {
			title string
			defs  []metricDef
		}{{"end-to-end", c.EndToEnd}, {"per-layer", c.PerLayer}} {
			for _, m := range l.defs {
				re := regexp.MustCompile(`(?m)^` + l.title + ` ` + regexp.QuoteMeta(m.Name) + ` +-?[0-9.]+ ` + regexp.QuoteMeta(m.Unit) + `$`)
				if !re.MatchString(out.String()) {
					t.Errorf("%s: %s metric %s [%s] not printed", wl.Name, l.title, m.Name, m.Unit)
				}
			}
		}
		for _, m := range c.EndToEnd {
			if v := rec.EndToEnd[m.Name].Value; v <= 0 {
				t.Errorf("%s: end-to-end %s = %v, want > 0", wl.Name, m.Name, v)
			}
		}
	}
}

// The command's last line is the result object with every end-to-end
// metric.
func TestResultLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := realMain([]string{"--workload", "serve-chaos", "--seed", "2", "--seconds", "0", "--trace", "0", "-smoke"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res struct {
		Correct   *bool
		Attempted *int64
		Failed    *int64
		Metrics   map[string]value
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct == nil || !*res.Correct || res.Attempted == nil || *res.Attempted < 1 || res.Failed == nil {
		t.Errorf("result line %s", lines[len(lines)-1])
	}
	for _, d := range endToEnd {
		if v, ok := res.Metrics[d.Name]; !ok || v.Unit != d.Unit {
			t.Errorf("result line lacks %s [%s]", d.Name, d.Unit)
		}
	}
	if len(res.Metrics) != len(endToEnd) {
		t.Errorf("result line has %d metrics, want %d", len(res.Metrics), len(endToEnd))
	}
}
