package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// stageSeries is the stage wall-time counter the gate tests judge: its
// _us unit marks it as time.
const stageSeries = "engine_stage_wall_us{stage=measure}"

// benchRec builds a gate-ready record; trials of one experiment share a
// fingerprint (Fingerprint ignores nothing in the config, so the caller
// keeps it constant).
func benchRec(exp string, trial int, stageMS float64, simsteps int64) RunRecord {
	cfg := map[string]string{"suite": "test"}
	return RunRecord{
		Schema: LedgerSchemaVersion, Experiment: exp,
		Fingerprint: Fingerprint(exp, cfg), Config: cfg, Trial: trial,
		TotalMS: stageMS + 5,
		Counters: map[string]int64{
			stageSeries:          int64(stageMS * 1000),
			"sim_steps_total":    simsteps,
			"object_moves_total": simsteps * 3,
			"makespan_steps_max": simsteps,
		},
		Env: CaptureEnv(),
	}
}

func trials(exp string, stageMS float64, simsteps int64, n int) []RunRecord {
	out := make([]RunRecord, n)
	for i := range out {
		out[i] = benchRec(exp, i, stageMS, simsteps)
	}
	return out
}

// TestCompareGateSelfTest is the CI self-test of the regression gate:
// identical ledgers pass, an injected 2× stage-time slowdown fails, and
// both verdict directions are counted.
func TestCompareGateSelfTest(t *testing.T) {
	old := trials("E1", 10, 100, 3)

	t.Run("identical ledgers pass", func(t *testing.T) {
		rep := Compare(old, trials("E1", 10, 100, 3), Thresholds{})
		if !rep.Pass() || rep.Regressions != 0 || rep.Improvements != 0 {
			t.Fatalf("identical ledgers: %+v, want clean pass", rep)
		}
		if len(rep.Groups) != 1 {
			t.Fatalf("groups = %d, want 1", len(rep.Groups))
		}
	})

	t.Run("2x stage time regresses", func(t *testing.T) {
		rep := Compare(old, trials("E1", 20, 100, 3), Thresholds{})
		if rep.Pass() {
			t.Fatal("2x stage_ms slowdown passed the gate")
		}
		found := false
		for _, m := range rep.Groups[0].Metrics {
			if m.Metric == stageSeries {
				found = true
				if m.Class != ClassTime || m.Verdict != VerdictRegression {
					t.Errorf("%s judged %s/%s, want time/regression", m.Metric, m.Class, m.Verdict)
				}
				if m.Old != 10 {
					t.Errorf("old = %g, want 10 (µs converted to ms)", m.Old)
				}
				if m.Delta < 0.99 || m.Delta > 1.01 {
					t.Errorf("delta = %g, want ~1.0 (+100%%)", m.Delta)
				}
			}
		}
		if !found {
			t.Fatalf("%s not judged", stageSeries)
		}
	})

	t.Run("2x speedup improves", func(t *testing.T) {
		rep := Compare(old, trials("E1", 5, 100, 3), Thresholds{})
		if !rep.Pass() {
			t.Fatal("a speedup must not fail the gate")
		}
		if rep.Improvements == 0 {
			t.Error("halved stage time not counted as an improvement")
		}
	})

	t.Run("count drift regresses exactly", func(t *testing.T) {
		rep := Compare(old, trials("E1", 10, 101, 3), Thresholds{})
		if rep.Pass() {
			t.Fatal("sim_steps_total 100 -> 101 must regress: counters are deterministic")
		}
	})
}

// TestCompareTimeNoiseFloors pins the two guards that keep wall-time
// jitter out of the gate: the MAD noise floor and the absolute
// millisecond floor.
func TestCompareTimeNoiseFloors(t *testing.T) {
	t.Run("MAD floor absorbs noisy trials", func(t *testing.T) {
		// Old trials scatter widely (MAD 10); the new median is +40% but
		// well inside 3×MAD, so the delta is noise, not a regression.
		old := []RunRecord{benchRec("E1", 0, 10, 100), benchRec("E1", 1, 20, 100), benchRec("E1", 2, 30, 100)}
		new := []RunRecord{benchRec("E1", 0, 18, 100), benchRec("E1", 1, 28, 100), benchRec("E1", 2, 38, 100)}
		rep := Compare(old, new, Thresholds{})
		for _, m := range rep.Groups[0].Metrics {
			if m.Metric == stageSeries && m.Verdict != VerdictOK {
				t.Errorf("noisy +40%% within 3xMAD judged %s, want ok", m.Verdict)
			}
		}
	})

	t.Run("sub-millisecond deltas never judged", func(t *testing.T) {
		rep := Compare(trials("E1", 0.02, 100, 3), trials("E1", 0.05, 100, 3), Thresholds{})
		if !rep.Pass() {
			t.Fatal("0.02ms -> 0.05ms (+150%) must stay under the 1ms absolute floor")
		}
	})
}

func TestCompareOneSidedAndEnv(t *testing.T) {
	old := trials("E1", 10, 100, 2)
	new := append(trials("E1", 10, 100, 2), trials("E2", 4, 50, 2)...)
	rep := Compare(old, new, Thresholds{})
	if !rep.Pass() {
		t.Fatal("a brand-new benchmark must not fail the gate")
	}
	if len(rep.OnlyNew) != 1 || !strings.Contains(rep.OnlyNew[0], "E2") {
		t.Errorf("OnlyNew = %v, want the E2 fingerprint", rep.OnlyNew)
	}
	if rep.EnvMismatch != "" {
		t.Errorf("same-env comparison reported mismatch %q", rep.EnvMismatch)
	}

	other := trials("E1", 10, 100, 2)
	for i := range other {
		other[i].Env.GOMAXPROCS += 7
	}
	rep = Compare(old, other, Thresholds{})
	if !strings.Contains(rep.EnvMismatch, "GOMAXPROCS") {
		t.Errorf("EnvMismatch = %q, want a GOMAXPROCS warning", rep.EnvMismatch)
	}
	if !rep.Pass() {
		t.Error("an environment mismatch is a warning, not a failure")
	}
}

// TestCompareLatencyPooling verifies the MergeHist consumer: a
// histogram series' p50/p99 come from the distribution pooled across
// the group's records, not a median of per-trial quantiles.
func TestCompareLatencyPooling(t *testing.T) {
	// Each trial observes 49 fast transactions and one 1000-step
	// straggler; pooled across two trials the p99 rank lands on the
	// stragglers, which naive averaging would flatten.
	reg := NewRegistry()
	h := reg.Histogram("txn_latency_steps")
	h.Observe(1000)
	for i := 0; i < 49; i++ {
		h.Observe(2)
	}
	var lat *HistSnapshot
	for _, s := range reg.Snapshot() {
		lat = HistDelta(s, Sample{})
	}
	mk := func(n int) []RunRecord {
		cfg := map[string]string{"suite": "test"}
		out := make([]RunRecord, n)
		for i := range out {
			out[i] = RunRecord{
				Schema: LedgerSchemaVersion, Experiment: "E1",
				Fingerprint: Fingerprint("E1", cfg), Config: cfg, Trial: i,
				Counters: map[string]int64{"sim_steps_total": 100},
				Hists:    map[string]*HistSnapshot{"txn_latency_steps": lat},
				Env:      CaptureEnv(),
			}
		}
		return out
	}
	rep := Compare(mk(2), mk(2), Thresholds{})
	if !rep.Pass() {
		t.Fatalf("identical pooled latency failed:\n%s", textOf(rep))
	}
	var p50, p99 float64
	for _, m := range rep.Groups[0].Metrics {
		switch m.Metric {
		case "txn_latency_steps/p50":
			p50 = m.New
		case "txn_latency_steps/p99":
			p99 = m.New
		}
	}
	if p50 != 2 {
		t.Errorf("pooled p50 = %g, want 2", p50)
	}
	if p99 < 1000 {
		t.Errorf("pooled p99 = %g, want the 1000-step tail to survive pooling", p99)
	}
}

func TestCompareReportRendering(t *testing.T) {
	rep := Compare(trials("E1", 10, 100, 3), trials("E1", 25, 101, 3), Thresholds{})
	var txt bytes.Buffer
	if err := rep.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"FAIL", "REGRESSED", stageSeries, "sim_steps_total"} {
		if !strings.Contains(txt.String(), want) {
			t.Errorf("text report missing %q:\n%s", want, txt.String())
		}
	}

	var js bytes.Buffer
	if err := rep.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var back CompareReport
	if err := json.Unmarshal(js.Bytes(), &back); err != nil {
		t.Fatalf("JSON report does not round-trip: %v", err)
	}
	if back.Regressions != rep.Regressions {
		t.Errorf("round-tripped regressions = %d, want %d", back.Regressions, rep.Regressions)
	}
}

func textOf(rep *CompareReport) string {
	var b bytes.Buffer
	rep.WriteText(&b)
	return b.String()
}

// TestGateNewSeries: series a publisher has just invented reach the
// ledger and the gate through SetDelta with no edit to this package. A
// doubled count (widget_total), time counter (widget_wall_ns_total),
// and histogram (widget_size) are each flagged, judged by the class
// their names imply.
func TestGateNewSeries(t *testing.T) {
	// record runs three trials publishing the widget series, scaled per
	// series, and returns them as read back from a ledger.
	record := func(count, wallNS, size int64) []RunRecord {
		var buf bytes.Buffer
		l := NewLedger(&buf)
		for trial := 0; trial < 3; trial++ {
			reg := NewRegistry()
			reg.Counter("widget_total").Add(count)
			reg.Counter("widget_wall_ns_total").Add(wallNS)
			for i := 0; i < 10; i++ {
				reg.Histogram("widget_size").Observe(size)
			}
			rec := RunRecord{Experiment: "widgets", Trial: trial}
			rec.SetDelta(nil, reg.Snapshot())
			if err := l.Append(&rec); err != nil {
				t.Fatal(err)
			}
		}
		recs, err := ReadLedger(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
	base := record(7, 5_000_000, 8)
	if rep := Compare(base, record(7, 5_000_000, 8), Thresholds{}); !rep.Pass() || rep.Improvements != 0 {
		t.Fatalf("identical widget ledgers:\n%s", textOf(rep))
	}
	for _, tc := range []struct {
		metric, class string
		regressions   int // a histogram regresses at p50 and p99
		recs          []RunRecord
	}{
		{"widget_total", ClassCount, 1, record(14, 5_000_000, 8)},
		{"widget_wall_ns_total", ClassTime, 1, record(7, 10_000_000, 8)},
		{"widget_size/p50", ClassCount, 2, record(7, 5_000_000, 16)},
	} {
		rep := Compare(base, tc.recs, Thresholds{})
		if rep.Regressions != tc.regressions {
			t.Errorf("doubling %s: %d regressions, want %d:\n%s", tc.metric, rep.Regressions, tc.regressions, textOf(rep))
		}
		for _, m := range rep.Groups[0].Metrics {
			if m.Metric == tc.metric && (m.Class != tc.class || m.Verdict != VerdictRegression) {
				t.Errorf("doubled %s judged %s/%s, want %s/regression", m.Metric, m.Class, m.Verdict, tc.class)
			}
		}
	}
}
