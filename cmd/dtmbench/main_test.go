package main

import (
	"bytes"
	"expvar"
	"testing"

	"dtmsched/internal/experiments"
	"dtmsched/internal/obs"
)

// TestPublishPrefix pins the expvar namespace: dtmbench must publish its
// registry under its own name — an earlier version leaked its sibling
// CLI's "dtmsched" prefix, making /debug/vars lie about which process
// was being inspected.
func TestPublishPrefix(t *testing.T) {
	if expvarName != "dtmbench" {
		t.Fatalf("expvarName = %q, want %q", expvarName, "dtmbench")
	}
	col := obs.NewMetricsCollector()
	col.Registry().Counter("probe").Inc()
	col.Registry().Publish(expvarName)
	if expvar.Get("dtmbench") == nil {
		t.Fatal("registry not published under the dtmbench namespace")
	}
	if expvar.Get("dtmsched") != nil {
		t.Fatal("registry must not publish under the sibling CLI's dtmsched namespace")
	}
}

// TestLedgerRecordFromPipeline covers the -ledger record builder: the
// series an experiment moved between its surrounding snapshots land in
// the record, gauges stay out of a mid-run interval, and identical
// snapshots record nothing.
func TestLedgerRecordFromPipeline(t *testing.T) {
	r := obs.NewRegistry()
	h := r.Histogram("txn_latency_steps")
	steps := r.Counter("sim_steps_total")
	steps.Add(7)
	r.Gauge("makespan_steps_max").Max(9)
	prev := r.Snapshot()
	for _, v := range []int64{2, 4, 8} {
		h.Observe(v)
	}
	steps.Add(40)
	cur := r.Snapshot()

	cfg := experiments.DefaultConfig()
	cfg.Trials = 2
	rec := ledgerRecord("E5", cfg, true, 12.5, prev, cur)
	if rec.Experiment != "E5" || rec.TotalMS != 12.5 || rec.Counters["sim_steps_total"] != 40 {
		t.Errorf("record = %+v, want the counter delta copied over", rec)
	}
	if _, ok := rec.Counters["makespan_steps_max"]; ok {
		t.Error("gauge recorded for an interval that does not start at the registry's creation")
	}
	if rec.Config["quick"] != "true" || rec.Config["workers"] == "0" || rec.Config["workers"] == "" {
		t.Errorf("config = %v, want quick=true and a resolved worker count", rec.Config)
	}
	lat := rec.Hists["txn_latency_steps"]
	if lat == nil || lat.Count != 3 {
		t.Fatalf("latency = %+v, want the 3-observation delta", lat)
	}
	// rank = floor(0.5*3) clamped to 1 → the first bucket's bound.
	if p50 := lat.Quantile(0.50); p50 != 2 {
		t.Errorf("latency p50 = %d, want 2", p50)
	}

	// No movement between snapshots → no series on the record.
	rec = ledgerRecord("E5", cfg, true, 12.5, cur, cur)
	if len(rec.Counters) != 0 || len(rec.Hists) != 0 {
		t.Errorf("identical snapshots recorded %v / %v, want nothing", rec.Counters, rec.Hists)
	}
}

// TestLedgerSelfGates drives the -ledger path end to end on a real
// experiment: quick E10 runs under the metrics collector, its record is
// written through a ledger and read back, it carries the engine's stage,
// simulator, and latency series, and the ledger gates clean against
// itself. The -json pipeline summary of the same run keeps whole-job wall
// time out of the per-stage map.
func TestLedgerSelfGates(t *testing.T) {
	e, ok := experiments.ByID("E10")
	if !ok {
		t.Fatal("E10 not registered")
	}
	cfg := experiments.DefaultConfig()
	cfg.Quick = true
	cfg.Trials = 1
	col := obs.NewMetricsCollector()
	cfg.Collector = col
	prev := col.Registry().Snapshot()
	if _, err := e.Run(cfg); err != nil {
		t.Fatal(err)
	}
	cur := col.Registry().Snapshot()

	var buf bytes.Buffer
	l := obs.NewLedger(&buf)
	if err := l.Append(ledgerRecord(e.ID, cfg, true, 1, prev, cur)); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadLedger(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("read back %d records, want 1", len(recs))
	}
	rec := recs[0]
	for _, stage := range []string{"generate", "schedule", "verify", "measure"} {
		if rec.Counters["engine_stage_total{stage="+stage+"}"] <= 0 {
			t.Errorf("record has no %s stage completions: %v", stage, rec.Counters)
		}
	}
	if rec.Counters["sim_steps_total"] <= 0 {
		t.Errorf("sim_steps_total = %d, want > 0", rec.Counters["sim_steps_total"])
	}
	if rec.Hists["txn_latency_steps"] == nil {
		t.Error("record carries no txn_latency_steps histogram")
	}
	if rep := obs.Compare(recs, recs, obs.Thresholds{}); !rep.Pass() {
		var out bytes.Buffer
		rep.WriteText(&out)
		t.Errorf("ledger does not gate clean against itself:\n%s", out.String())
	}

	counters := counterMap(cur)
	p := pipelineDelta(counterMap(prev), counters)
	if _, ok := p.StageMS["done"]; ok {
		t.Errorf("stage_ms = %v, want job wall kept out of the stage map", p.StageMS)
	}
	if want := float64(counters["engine_stage_wall_us{stage=done}"]) / 1000; p.JobMS != want || want <= 0 {
		t.Errorf("job_ms = %v, want the summed job wall %v", p.JobMS, want)
	}
}
