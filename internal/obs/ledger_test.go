package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

func TestLedgerRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	l := NewLedger(&buf)
	recs := []*RunRecord{
		{Experiment: "E1", Config: map[string]string{"quick": "true"}, Seed: 7,
			TotalMS: 10, Bound: 10, Ratio: 1.2,
			Counters: map[string]int64{"engine_stage_wall_us{stage=schedule}": 1500, "sim_steps_total": 42},
			Hists: map[string]*HistSnapshot{"txn_latency_steps": {Count: 5, Sum: 20, Max: 8,
				Buckets: []Bucket{{LE: 4, N: 3}, {LE: 8, N: 2}}}}},
		{Experiment: "E2", Trial: 2},
	}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Err(); err != nil {
		t.Fatalf("Err: %v", err)
	}

	got, err := ReadLedger(&buf)
	if err != nil {
		t.Fatalf("ReadLedger: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("read %d records, want 2", len(got))
	}
	r := got[0]
	if r.Schema != LedgerSchemaVersion {
		t.Errorf("schema = %d, want %d (Append fills it)", r.Schema, LedgerSchemaVersion)
	}
	if r.Fingerprint != Fingerprint("E1", map[string]string{"quick": "true"}) {
		t.Errorf("fingerprint = %q not the config hash", r.Fingerprint)
	}
	if r.Env == (Env{}) {
		t.Error("Append must fill Env")
	}
	if r.Counters["sim_steps_total"] != 42 || r.Counters["engine_stage_wall_us{stage=schedule}"] != 1500 || r.Ratio != 1.2 {
		t.Errorf("measurement fields did not round-trip: %+v", r)
	}
	if lat := r.Hists["txn_latency_steps"]; lat == nil || lat.Count != 5 || len(lat.Buckets) != 2 {
		t.Errorf("latency snapshot did not round-trip: %+v", lat)
	}
	if got[1].Trial != 2 {
		t.Errorf("trial = %d, want 2", got[1].Trial)
	}
}

func TestReadLedgerRejectsBadInput(t *testing.T) {
	for name, in := range map[string]string{
		"newer schema": fmt.Sprintf(`{"schema":%d,"experiment":"x"}`, LedgerSchemaVersion+1),
		"schema 1":     `{"schema":1,"experiment":"x","simsteps":4}`,
		"zero schema":  `{"experiment":"x"}`,
		"not json":     `{"experiment":`,
	} {
		if _, err := ReadLedger(strings.NewReader(in + "\n")); err == nil {
			t.Errorf("%s: ReadLedger accepted %q", name, in)
		} else if !strings.Contains(err.Error(), "line 1") {
			t.Errorf("%s: error %q does not name the line", name, err)
		}
	}
	if _, err := ReadLedger(strings.NewReader(`{"schema":1,"experiment":"x"}`)); err == nil ||
		!strings.Contains(err.Error(), "regenerate") {
		t.Errorf("schema 1 error %v does not say to regenerate the ledger", err)
	}
	// Blank lines are not errors.
	if recs, err := ReadLedger(strings.NewReader("\n\n")); err != nil || len(recs) != 0 {
		t.Errorf("blank input: recs=%d err=%v, want 0, nil", len(recs), err)
	}
}

func TestLedgerStickyError(t *testing.T) {
	l := NewLedger(failWriter{})
	if err := l.Append(&RunRecord{Experiment: "x"}); err == nil {
		t.Fatal("Append to a failing writer must error")
	}
	if err := l.Err(); err == nil {
		t.Fatal("Err must report the sticky write error")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, fmt.Errorf("sink full") }

func TestFingerprintStable(t *testing.T) {
	a := Fingerprint("E1", map[string]string{"a": "1", "b": "2"})
	b := Fingerprint("E1", map[string]string{"b": "2", "a": "1"})
	if a != b {
		t.Errorf("fingerprint depends on map order: %s vs %s", a, b)
	}
	if len(a) != 16 {
		t.Errorf("fingerprint %q is not 16 hex chars", a)
	}
	if a == Fingerprint("E1", map[string]string{"a": "1", "b": "3"}) {
		t.Error("different config produced the same fingerprint")
	}
	if a == Fingerprint("E2", map[string]string{"a": "1", "b": "2"}) {
		t.Error("different experiment produced the same fingerprint")
	}
}

func TestHistSnapshotQuantile(t *testing.T) {
	h := &HistSnapshot{Count: 10, Sum: 100, Max: 900,
		Buckets: []Bucket{{LE: 4, N: 4}, {LE: 8, N: 4}, {LE: -1, N: 2}}}
	for _, tc := range []struct {
		q    float64
		want int64
	}{
		{0.0, 4},   // rank clamps to 1
		{0.4, 4},   // exactly the last observation of the first bucket
		{0.5, 8},   // first observation of the second bucket
		{0.8, 8},   // boundary of the second bucket
		{0.9, 900}, // overflow → observed max
		{1.0, 900},
	} {
		if got := h.Quantile(tc.q); got != tc.want {
			t.Errorf("Quantile(%g) = %d, want %d", tc.q, got, tc.want)
		}
	}
	if got := (&HistSnapshot{}).Quantile(0.5); got != 0 {
		t.Errorf("empty snapshot Quantile = %d, want 0", got)
	}
	if got := (*HistSnapshot)(nil).Quantile(0.5); got != 0 {
		t.Errorf("nil snapshot Quantile = %d, want 0", got)
	}
}

func TestMergeHistDeterminism(t *testing.T) {
	a := &HistSnapshot{Count: 3, Sum: 10, Max: 7,
		Buckets: []Bucket{{LE: 4, N: 2}, {LE: 8, N: 1}}}
	b := &HistSnapshot{Count: 4, Sum: 40, Max: 90,
		Buckets: []Bucket{{LE: 2, N: 1}, {LE: 8, N: 2}, {LE: -1, N: 1}}}
	ab, ba := MergeHist(a, b), MergeHist(b, a)
	jab, _ := json.Marshal(ab)
	jba, _ := json.Marshal(ba)
	if !bytes.Equal(jab, jba) {
		t.Errorf("merge is not commutative:\n %s\n %s", jab, jba)
	}
	if ab.Count != 7 || ab.Sum != 50 || ab.Max != 90 {
		t.Errorf("merged totals = %+v, want count 7 sum 50 max 90", ab)
	}
	want := []Bucket{{LE: 2, N: 1}, {LE: 4, N: 2}, {LE: 8, N: 3}, {LE: -1, N: 1}}
	if fmt.Sprint(ab.Buckets) != fmt.Sprint(want) {
		t.Errorf("merged buckets = %v, want %v (sorted, overflow last)", ab.Buckets, want)
	}
	if MergeHist(nil, nil) != nil {
		t.Error("MergeHist(nil, nil) must be nil")
	}
	if m := MergeHist(a, nil); m.Count != a.Count {
		t.Errorf("MergeHist(a, nil).Count = %d, want %d", m.Count, a.Count)
	}
}

func TestHistDelta(t *testing.T) {
	prev := Sample{Count: 3, Sum: 10, Max: 8, Buckets: []Bucket{{LE: 4, N: 2}, {LE: 8, N: 1}}}
	cur := Sample{Count: 8, Sum: 60, Max: 32, Buckets: []Bucket{{LE: 4, N: 3}, {LE: 8, N: 3}, {LE: 32, N: 2}}}
	d := HistDelta(cur, prev)
	if d.Count != 5 || d.Sum != 50 || d.Max != 32 {
		t.Errorf("delta totals = %+v, want count 5 sum 50 max 32", d)
	}
	want := []Bucket{{LE: 4, N: 1}, {LE: 8, N: 2}, {LE: 32, N: 2}}
	if fmt.Sprint(d.Buckets) != fmt.Sprint(want) {
		t.Errorf("delta buckets = %v, want %v", d.Buckets, want)
	}
	// Delta from the zero Sample is the cumulative snapshot.
	if d := HistDelta(cur, Sample{}); d.Count != 8 || len(d.Buckets) != 3 {
		t.Errorf("delta from zero = %+v, want the full snapshot", d)
	}
}

// TestSnapshotValues: a registry histogram frozen through Snapshot and
// HistDelta keeps its totals, bucket bounds, and overflow maximum.
func TestSnapshotValues(t *testing.T) {
	reg := NewRegistry()
	for _, v := range []int64{1, 3, 5, 100000} {
		reg.Histogram("h").Observe(v)
	}
	s := HistDelta(reg.Snapshot()[0], Sample{})
	if s.Count != 4 || s.Sum != 100009 || s.Max != 100000 {
		t.Errorf("snapshot totals = %+v", s)
	}
	if got := s.Quantile(0.5); got != 4 {
		t.Errorf("Quantile(0.5) = %d, want 4 (bucket upper bound of 3)", got)
	}
	if got := s.Quantile(1.0); got != 100000 {
		t.Errorf("Quantile(1.0) = %d, want the observed max in overflow", got)
	}
}

// TestNilLedgerZeroAllocs pins the obs/v2 nil-safety contract: callers
// may use an unattached ledger unconditionally and the hot path must not
// allocate.
func TestNilLedgerZeroAllocs(t *testing.T) {
	var l *Ledger
	rec := &RunRecord{Experiment: "x"}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
		if err := l.Err(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("nil ledger path allocates %.1f allocs/op, want 0", allocs)
	}
}
