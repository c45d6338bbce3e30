package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dtmsched/internal/obs"
)

// TestServeSmoke drains a short seeded stream through the in-process
// serve command, then checks the ledger record it appends (stream
// counters, window-latency distribution) and the Prometheus exposition
// it dumps, and gates the ledger against itself.
func TestServeSmoke(t *testing.T) {
	dir := t.TempDir()
	ledger := filepath.Join(dir, "serve.jsonl")
	prom := filepath.Join(dir, "serve.prom")

	args := []string{"-topo", "line", "-n", "12", "-w", "4", "-rate", "0.6",
		"-txns", "120", "-window", "4", "-queue", "6", "-policy", "reject",
		"-seed", "7", "-ledger", ledger, "-prom", prom}
	if err := runServeCmd(args); err != nil {
		t.Fatal(err)
	}
	// Same flags, same seed: the second run must append a record with an
	// identical fingerprint and identical deterministic counters.
	if err := runServeCmd(args); err != nil {
		t.Fatal(err)
	}

	recs, err := obs.ReadLedgerFile(ledger)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("two serve runs wrote %d records, want 2", len(recs))
	}
	a, b := recs[0], recs[1]
	if a.Fingerprint != b.Fingerprint {
		t.Errorf("same flags, different fingerprints: %s vs %s", a.Fingerprint, b.Fingerprint)
	}
	for _, name := range []string{"stream_admitted_total", "stream_rejected_total",
		"stream_windows_total", "stream_committed_total"} {
		if a.Counters[name] != b.Counters[name] {
			t.Errorf("same seed, different %s: %d vs %d", name, a.Counters[name], b.Counters[name])
		}
	}
	admitted, committed := a.Counters["stream_admitted_total"], a.Counters["stream_committed_total"]
	if admitted == 0 || admitted != committed {
		t.Errorf("admitted %d must be nonzero and equal committed %d", admitted, committed)
	}
	windows, peak := a.Counters["stream_windows_total"], a.Counters["stream_queue_depth_peak"]
	if windows < 2 || peak < 1 || peak > 6 {
		t.Errorf("implausible stream shape: windows=%d queue peak=%d", windows, peak)
	}
	if wl := a.Hists["stream_window_latency_steps"]; wl == nil || wl.Count != windows {
		t.Errorf("window latency distribution missing or mismatched: %+v", wl)
	}
	if resp := a.Hists["stream_txn_response_steps"]; resp == nil || resp.Count != committed ||
		resp.Quantile(0.99) < resp.Quantile(0.50) {
		t.Errorf("response distribution missing or mismatched: %+v", resp)
	}

	if code := runBenchCmd([]string{"gate", ledger, ledger}); code != 0 {
		t.Errorf("gating a serve ledger against itself exited %d, want 0", code)
	}

	text, err := os.ReadFile(prom)
	if err != nil {
		t.Fatal(err)
	}
	for _, metric := range []string{"stream_admitted_total", "stream_rejected_total",
		"stream_committed_total", "stream_windows_total", "stream_queue_depth_peak",
		"stream_window_latency_steps_bucket", "stream_txn_response_steps_bucket"} {
		if !strings.Contains(string(text), metric) {
			t.Errorf("prom exposition missing %s", metric)
		}
	}
}

// TestServeChaosSmoke runs the serve command under chaos injection twice
// with one seed and checks the run is deterministic, the health layer
// engages, and the ledger record carries the fault counters with a
// fingerprint distinct from the fault-free run of the same flags.
func TestServeChaosSmoke(t *testing.T) {
	dir := t.TempDir()
	ledger := filepath.Join(dir, "chaos.jsonl")
	base := []string{"-topo", "clique", "-n", "12", "-w", "6", "-rate", "1.2",
		"-txns", "150", "-window", "6", "-queue", "12", "-policy", "block",
		"-seed", "7", "-ledger", ledger}
	chaos := append(append([]string{}, base...), "-faults", "0.25,99")
	if err := runServeCmd(chaos); err != nil {
		t.Fatal(err)
	}
	if err := runServeCmd(chaos); err != nil {
		t.Fatal(err)
	}
	if err := runServeCmd(base); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadLedgerFile(ledger)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	a, b, clean := recs[0], recs[1], recs[2]
	if a.Fingerprint != b.Fingerprint {
		t.Errorf("same chaos flags, different fingerprints: %s vs %s", a.Fingerprint, b.Fingerprint)
	}
	for _, name := range []string{"stream_requeue_total", "stream_shed_total",
		"stream_admitted_total", "fault_retries_total"} {
		if a.Counters[name] != b.Counters[name] {
			t.Errorf("chaos run not deterministic: %s %d vs %d", name, a.Counters[name], b.Counters[name])
		}
	}
	if ia, ib := a.Hists["stream_fault_inflation_pct"], b.Hists["stream_fault_inflation_pct"]; ia == nil ||
		ib == nil || ia.Count != ib.Count || ia.Sum != ib.Sum {
		t.Errorf("chaos inflation not deterministic: %+v vs %+v", ia, ib)
	}
	if a.Counters["stream_requeue_total"] == 0 {
		t.Errorf("25%% chaos never requeued a transaction: %v", a.Counters)
	}
	admitted, committed, shed := a.Counters["stream_admitted_total"], a.Counters["stream_committed_total"], a.Counters["stream_shed_total"]
	if admitted != committed+shed {
		t.Errorf("admitted %d != committed %d + shed %d", admitted, committed, shed)
	}
	if clean.Fingerprint == a.Fingerprint {
		t.Error("chaos and fault-free runs share a ledger fingerprint")
	}
	for name := range clean.Counters {
		if strings.HasPrefix(name, "fault_") || strings.HasPrefix(name, "stream_requeue") ||
			strings.HasPrefix(name, "stream_shed") {
			t.Errorf("fault-free record carries fault series %s", name)
		}
	}
	if clean.Hists["stream_fault_inflation_pct"] != nil {
		t.Error("fault-free record carries a fault inflation distribution")
	}
	if code := runBenchCmd([]string{"gate", ledger, ledger}); code != 0 {
		t.Errorf("gating the chaos ledger against itself exited %d, want 0", code)
	}
}

// TestServeFlagErrors covers the flag validation paths.
func TestServeFlagErrors(t *testing.T) {
	for name, args := range map[string][]string{
		"topo":     {"-topo", "mobius"},
		"workload": {"-workload", "nope"},
		"policy":   {"-policy", "drop"},
		"verify":   {"-verify", "maybe"},
		"faults":   {"-faults", "1.5"},
		"faults2":  {"-faults", "0.1,zz"},
		"shed":     {"-shed", "-1"},
	} {
		if err := runServeCmd(append(args, "-txns", "5")); err == nil {
			t.Errorf("%s: bad flag accepted", name)
		}
	}
}
