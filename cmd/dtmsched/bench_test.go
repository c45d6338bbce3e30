package main

import (
	"os"
	"path/filepath"
	"testing"

	"dtmsched/internal/obs"
)

// writeTestLedger writes a 3-trial synthetic ledger whose measure stage
// takes stageMS milliseconds.
func writeTestLedger(t *testing.T, path string, stageMS float64) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	l := obs.NewLedger(f)
	for trial := 0; trial < 3; trial++ {
		rec := obs.RunRecord{
			Experiment: "bench/x", Config: map[string]string{"suite": "t"}, Trial: trial,
			TotalMS: stageMS + 2,
			Counters: map[string]int64{
				"engine_stage_wall_us{stage=measure}": int64(stageMS * 1000),
				"sim_steps_total":                     100,
				"object_moves_total":                  300,
				"makespan_steps_max":                  100,
			},
		}
		if err := l.Append(&rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBenchGate is the end-to-end gate self-test: identical ledgers exit
// 0, an injected 2× stage-time slowdown exits 1, compare never gates,
// and usage or IO mistakes exit 2.
func TestBenchGate(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.jsonl")
	same := filepath.Join(dir, "same.jsonl")
	slow := filepath.Join(dir, "slow.jsonl")
	writeTestLedger(t, base, 10)
	writeTestLedger(t, same, 10)
	writeTestLedger(t, slow, 20)

	if code := runBenchCmd([]string{"gate", base, same}); code != 0 {
		t.Errorf("gate on identical ledgers exited %d, want 0", code)
	}
	if code := runBenchCmd([]string{"gate", base, slow}); code != 1 {
		t.Errorf("gate on a 2x slowdown exited %d, want 1", code)
	}
	if code := runBenchCmd([]string{"compare", base, slow}); code != 0 {
		t.Errorf("compare must report without gating; exited %d, want 0", code)
	}
	if code := runBenchCmd([]string{"gate", "-json", base, slow}); code != 1 {
		t.Errorf("gate -json on a slowdown exited %d, want 1", code)
	}
	// A loose threshold lets the same slowdown through.
	if code := runBenchCmd([]string{"gate", "-time-threshold", "2.0", base, slow}); code != 0 {
		t.Errorf("gate with -time-threshold 2.0 exited %d, want 0", code)
	}

	if code := runBenchCmd([]string{"gate", base}); code != 2 {
		t.Errorf("gate with one path exited %d, want 2", code)
	}
	if code := runBenchCmd([]string{"gate", base, filepath.Join(dir, "missing.jsonl")}); code != 2 {
		t.Errorf("gate on a missing ledger exited %d, want 2", code)
	}
	if code := runBenchCmd([]string{"frobnicate"}); code != 2 {
		t.Errorf("unknown subcommand exited %d, want 2", code)
	}
	if code := runBenchCmd(nil); code != 2 {
		t.Errorf("bare bench exited %d, want 2", code)
	}
}
