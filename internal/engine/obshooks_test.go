package engine

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dtmsched/internal/core"
	"dtmsched/internal/obs"
	"dtmsched/internal/tm"
)

type failingScheduler struct{}

func (failingScheduler) Name() string { return "failing" }
func (failingScheduler) Schedule(in *tm.Instance) (*core.Result, error) {
	return nil, errors.New("no schedule today")
}

func TestLedgerHook(t *testing.T) {
	var buf bytes.Buffer
	ledger := obs.NewLedger(&buf)
	base := obs.RunRecord{Config: map[string]string{"suite": "t"}, Seed: 11}
	jobs := []Job{
		{Name: "lh/clique#0", Gen: cliqueGen(12, 4, 2, 11), Scheduler: &core.Greedy{}},
		{Name: "lh/clique#1", Gen: cliqueGen(12, 4, 2, 12), Scheduler: &core.Greedy{}},
	}
	for i := range jobs {
		jobs[i].Collector = obs.NewMetricsCollector()
		jobs[i].Hook = LedgerHook(ledger, base, jobs[i].Collector)
	}
	results, err := RunBatch(context.Background(), jobs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Reports(results); err != nil {
		t.Fatal(err)
	}
	if err := ledger.Err(); err != nil {
		t.Fatal(err)
	}

	recs, err := obs.ReadLedger(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("ledger has %d records, want one per job", len(recs))
	}
	if recs[0].Fingerprint != recs[1].Fingerprint {
		t.Errorf("trials of one job split fingerprints: %s vs %s", recs[0].Fingerprint, recs[1].Fingerprint)
	}
	gotTrials := map[int]bool{recs[0].Trial: true, recs[1].Trial: true}
	if !gotTrials[0] || !gotTrials[1] {
		t.Errorf("trials = %v, want {0, 1} from the #N suffixes", gotTrials)
	}
	for _, r := range recs {
		if r.Experiment != "lh/clique" {
			t.Errorf("experiment = %q, want the job name minus the trial suffix", r.Experiment)
		}
		if r.Config["job"] != "lh/clique" || r.Config["suite"] != "t" {
			t.Errorf("config = %v, want the base config plus job", r.Config)
		}
		if r.Algorithm == "" {
			t.Error("algorithm not recorded")
		}
		for _, stage := range []string{"generate", "schedule", "verify", "measure"} {
			if r.Counters["engine_stage_total{stage="+stage+"}"] != 1 {
				t.Errorf("stage %q not recorded: %v", stage, r.Counters)
			}
		}
		executed := r.Counters["txns_executed_total"]
		if r.Counters["sim_steps_total"] <= 0 || executed <= 0 || r.Counters["makespan_steps_max"] <= 0 {
			t.Errorf("counters not recorded: %v", r.Counters)
		}
		if r.Counters["engine_runs_total"] != 1 {
			t.Errorf("engine_runs_total = %d, want 1: the record must hold this job's series alone",
				r.Counters["engine_runs_total"])
		}
		if r.Bound <= 0 || r.Ratio <= 0 {
			t.Errorf("bound/ratio not recorded: bound=%d ratio=%g", r.Bound, r.Ratio)
		}
		lat := r.Hists["txn_latency_steps"]
		if lat == nil || lat.Count != executed {
			t.Errorf("latency snapshot missing or wrong size: %+v", lat)
		} else if lat.Quantile(0.99) < lat.Quantile(0.50) {
			t.Errorf("p99 %d < p50 %d", lat.Quantile(0.99), lat.Quantile(0.50))
		}
		if r.Env == (obs.Env{}) {
			t.Error("env not captured")
		}
	}
}

func TestLedgerHookSkipsFailures(t *testing.T) {
	var buf bytes.Buffer
	ledger := obs.NewLedger(&buf)
	_, err := Run(context.Background(), Job{
		Name: "bad", Gen: cliqueGen(12, 4, 2, 11), Scheduler: failingScheduler{},
		Hook: LedgerHook(ledger, obs.RunRecord{}, nil),
	})
	if err == nil {
		t.Fatal("failing scheduler must error")
	}
	if buf.Len() != 0 {
		t.Errorf("failed job wrote a ledger record: %s", buf.String())
	}
}

func TestSplitTrial(t *testing.T) {
	for _, tc := range []struct {
		in    string
		name  string
		trial int
	}{
		{"bench/grid12#3", "bench/grid12", 3},
		{"plain", "plain", 0},
		{"odd#name", "odd#name", 0}, // non-numeric suffix stays in the name
		{"x#0", "x", 0},
	} {
		name, trial := splitTrial(tc.in)
		if name != tc.name || trial != tc.trial {
			t.Errorf("splitTrial(%q) = (%q, %d), want (%q, %d)", tc.in, name, trial, tc.name, tc.trial)
		}
	}
}

func TestProfilerHook(t *testing.T) {
	dir := t.TempDir()
	prof, err := obs.NewProfiler(dir)
	if err != nil {
		t.Fatal(err)
	}
	prof.Start()
	if _, err := Run(context.Background(), Job{
		Name: "prof/clique", Gen: cliqueGen(12, 4, 2, 11), Scheduler: &core.Greedy{},
		Hook: ProfilerHook(prof),
	}); err != nil {
		t.Fatal(err)
	}
	if err := prof.Close(); err != nil {
		t.Fatal(err)
	}
	if err := prof.Err(); err != nil {
		t.Fatal(err)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var cpu, heap int
	stages := map[string]bool{}
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, "cpu-"):
			cpu++
		case strings.HasPrefix(name, "heap-"):
			heap++
		default:
			t.Errorf("unexpected file %s (the active scratch must be cleaned up)", name)
		}
		for _, stage := range []string{"generate", "schedule", "verify", "measure"} {
			if strings.Contains(name, "-"+stage+".pprof") {
				stages[stage] = true
			}
		}
		if info, err := e.Info(); err == nil && info.Size() == 0 {
			t.Errorf("profile %s is empty", name)
		}
	}
	// Five stage boundaries (generate..done) each produce a CPU profile
	// and a heap snapshot.
	if cpu != 5 || heap != 5 {
		t.Errorf("got %d cpu / %d heap profiles, want 5 each", cpu, heap)
	}
	for _, stage := range []string{"generate", "schedule", "verify", "measure"} {
		if !stages[stage] {
			t.Errorf("no profile labeled for stage %s", stage)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, ".cpu-active.pprof")); !os.IsNotExist(err) {
		t.Error("scratch CPU profile left behind after Close")
	}
}
