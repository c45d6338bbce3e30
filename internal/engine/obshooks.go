// Observability hook constructors: the obs/v2 run ledger and per-stage
// profiler attach to the pipeline through the existing Hook mechanism —
// no new pipeline branches, and nothing here runs unless a caller wires
// the returned Hook into a Job or batch Options. With neither attached,
// the hot path keeps the nil-Collector zero-allocation contract.
package engine

import (
	"strconv"
	"strings"

	"dtmsched/internal/obs"
)

// LedgerHook returns a Hook that appends one obs.RunRecord to l for
// every job that finishes successfully (StageDone with a report), with
// the series the job moved in col — which must be that job's own
// collector (Job.Collector), since the record takes col's whole registry
// as the job's delta. base seeds the record's identity: Experiment (the
// job name is appended to an empty Experiment, so per-job records group
// by workload), Config (cloned per record with the job name added under
// "job"), and Seed. Job names may carry a "#N" suffix to mark trial N of
// one fingerprint: the suffix is stripped from the grouping identity and
// recorded as Trial, so repeated trials share a fingerprint and the
// regression comparator can pool them.
//
// Appends are serialized by the ledger itself, so the hook is safe under
// RunBatch; append errors are sticky on the ledger (check Ledger.Err
// after the run).
func LedgerHook(l *obs.Ledger, base obs.RunRecord, col *obs.Collector) Hook {
	env := obs.CaptureEnv()
	return func(ev Event) {
		if ev.Stage != StageDone || ev.Report == nil {
			return
		}
		name, trial := splitTrial(ev.Name)
		rec := base
		rec.Env = env
		rec.Trial = trial
		rec.Fingerprint = "" // recomputed per job by Append
		if rec.Experiment == "" {
			rec.Experiment = name
		}
		cfg := make(map[string]string, len(base.Config)+1)
		for k, v := range base.Config {
			cfg[k] = v
		}
		cfg["job"] = name
		rec.Config = cfg

		r := ev.Report
		rec.Algorithm = r.Algorithm
		rec.TotalMS = float64(r.Timing.Total.Microseconds()) / 1000
		rec.Bound = r.Bound.Value
		rec.Ratio = r.Ratio
		rec.SetDelta(nil, col.Registry().Snapshot())
		l.Append(&rec)
	}
}

// splitTrial splits a "name#N" job label into its grouping name and
// trial number; names without a numeric suffix are trial 0.
func splitTrial(name string) (string, int) {
	i := strings.LastIndexByte(name, '#')
	if i < 0 {
		return name, 0
	}
	n, err := strconv.Atoi(name[i+1:])
	if err != nil {
		return name, 0
	}
	return name[:i], n
}

// ProfilerHook returns a Hook that rotates p's capture at every stage
// boundary, so each pipeline stage lands in its own CPU profile with a
// heap snapshot at the seam. Meaningful attribution needs serial
// execution (Options.Workers = 1): CPU profiling is process-global.
func ProfilerHook(p *obs.Profiler) Hook {
	return func(ev Event) {
		p.StageBoundary(ev.Job, ev.Name, ev.Stage.String())
	}
}
