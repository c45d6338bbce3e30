package main

import (
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
	h := r.Histogram("txn_latency_steps", nil)
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
