// Engine instrumentation: every series the pipeline publishes is written
// here, straight into the collector's registry. A nil collector hands out
// a nil registry whose nil handles are no-ops, so publishing costs
// nothing when observability is off.
package engine

import (
	"time"

	"dtmsched/internal/analysis"
	"dtmsched/internal/faults"
	"dtmsched/internal/lower"
	"dtmsched/internal/obs"
	"dtmsched/internal/schedule"
	"dtmsched/internal/sim"
	"dtmsched/internal/tm"
)

// publishStats records a scheduler's stats map. Conflict-graph builds
// (the depgraph_* keys written by core schedulers) yield build count,
// wall time, and edge totals as counters plus per-run distributions of
// edges, Γ, and h_max. Hierarchical runs (the hier_* keys) yield phase
// wall times and local/cross transaction totals plus per-run
// distributions of shard count, largest shard, and the cross-tier
// conflict fraction in integer percent. Maps without depgraph_build_ns /
// hier_shards (baselines, precomputed schedules) publish nothing.
func publishStats(reg *obs.Registry, stats map[string]int64) {
	if reg == nil {
		return
	}
	if ns, ok := stats["depgraph_build_ns"]; ok {
		reg.Counter("depgraph_build_ns_total").Add(ns)
		reg.Counter("depgraph_builds_total").Add(stats["depgraph_builds"])
		reg.Counter("depgraph_edges_total").Add(stats["depgraph_edges"])
		reg.Histogram("depgraph_build_us").Observe(ns / 1000)
		reg.Histogram("depgraph_edges").Observe(stats["depgraph_edges"])
		if gamma, ok := stats["gamma"]; ok {
			reg.Histogram("depgraph_gamma").Observe(gamma)
		}
		if hmax, ok := stats["hmax"]; ok {
			reg.Histogram("depgraph_hmax").Observe(hmax)
		}
	}
	if shards, ok := stats["hier_shards"]; ok {
		local, cross := stats["hier_local_txns"], stats["hier_cross_txns"]
		reg.Counter("hier_runs_total").Inc()
		reg.Counter("hier_local_txns_total").Add(local)
		reg.Counter("hier_cross_txns_total").Add(cross)
		reg.Counter("hier_shard_wall_ns_total").Add(stats["hier_shard_wall_ns"])
		reg.Counter("hier_merge_wall_ns_total").Add(stats["hier_merge_wall_ns"])
		reg.Histogram("hier_shards").Observe(shards)
		reg.Histogram("hier_max_shard_txns").Observe(stats["hier_max_shard_txns"])
		reg.Histogram("hier_shard_wall_us").Observe(stats["hier_shard_wall_ns"] / 1000)
		reg.Histogram("hier_merge_wall_us").Observe(stats["hier_merge_wall_ns"] / 1000)
		if total := local + cross; total > 0 {
			reg.Histogram("hier_cross_fraction_pct").Observe(100 * cross / total)
		}
	}
}

// publishLower records one Measure-stage certified-bound query: cache
// hits versus fresh computations as counters, the bound's per-object
// layer split (exact, closed-form, pruned, MST-bounded) as counters, plus
// compute wall time and the exact-vs-MST split as histograms
// (computations only, so distributions count each distinct bound once).
func publishLower(reg *obs.Registry, hit bool, wall time.Duration, b *lower.Bound) {
	if reg == nil {
		return
	}
	if hit {
		reg.Counter("lower_cache_hits_total").Inc()
		return
	}
	reg.Counter("lower_computations_total").Inc()
	reg.Counter("lower_compute_ns_total").Add(wall.Nanoseconds())
	reg.Counter("lower_exact_objects_total").Add(int64(b.ExactObjects))
	reg.Counter("lower_closed_form_objects_total").Add(int64(b.ClosedFormObjects))
	reg.Counter("lower_pruned_objects_total").Add(int64(b.PrunedObjects))
	reg.Counter("lower_certified_objects_total").Add(int64(b.CertifiedObjects))
	reg.Counter("lower_branched_objects_total").Add(int64(b.BranchedObjects))
	reg.Counter("lower_dp_objects_total").Add(int64(b.ExactObjects - b.ClosedFormObjects - b.PrunedObjects - b.CertifiedObjects - b.BranchedObjects))
	reg.Counter("lower_bounded_objects_total").Add(int64(b.BoundedObjects))
	reg.Histogram("lower_compute_us").Observe(wall.Microseconds())
	reg.Histogram("lower_exact_objects").Observe(int64(b.ExactObjects))
	reg.Histogram("lower_mst_objects").Observe(int64(b.BoundedObjects))
}

// publishFault records one faulty replay's recovery summary: per-kind
// recovery counters plus a makespan-inflation histogram in integer
// percent (100 = no loss).
func publishFault(reg *obs.Registry, fr *faults.Report) {
	if reg == nil {
		return
	}
	reg.Counter("fault_runs_total").Inc()
	reg.Counter("fault_retries_total").Add(fr.Retries)
	reg.Counter("fault_reroutes_total").Add(fr.Reroutes)
	reg.Counter("fault_blocked_waits_total").Add(fr.BlockedWaits)
	reg.Counter("fault_deferred_moves_total").Add(fr.DeferredMoves)
	reg.Counter("fault_deferred_commits_total").Add(fr.DeferredCommits)
	reg.Counter("fault_wasted_comm_total").Add(fr.WastedComm)
	reg.Histogram("fault_inflation_pct").Observe(int64(fr.Inflation*100 + 0.5))
}

// recordRun records one finished run: latency and travel histograms and
// run counters always, plus the full trace (derived schedule metrics and
// move/exec spans) when the collector traces. simRes may be nil
// (VerifyFast / VerifyOff): the spans are then synthesized from the
// schedule under the same synchronous timing semantics the simulator
// enforces, so traces do not depend on the verify policy. When simRes
// carries a recorded event stream, the spans come from those events.
// objTravel is the Verify stage's per-object walk; nil walks s.Travel.
func recordRun(col *obs.Collector, job int, name, algorithm string, in *tm.Instance, s *schedule.Schedule, simRes *sim.Result, objTravel []int64) {
	reg := col.Registry()
	if reg == nil {
		return
	}
	reg.Counter("engine_runs_total").Inc()
	reg.Counter("engine_runs_total", "algorithm", algorithm).Inc()
	latency := reg.Histogram("txn_latency_steps")
	for _, t := range s.Times {
		latency.Observe(t)
	}
	reg.Gauge("makespan_steps_max").Max(s.Makespan())
	if simRes != nil {
		reg.Counter("sim_steps_total").Add(simRes.Makespan)
		reg.Counter("object_moves_total").Add(simRes.Moves)
		reg.Counter("txns_executed_total").Add(int64(simRes.Executed))
		reg.Counter("comm_cost_total").Add(simRes.CommCost)
	}

	travel := reg.Histogram("object_travel_steps")
	if !col.Tracing() {
		if objTravel == nil {
			objTravel = s.Travel(in)
		}
		for _, d := range objTravel {
			travel.Observe(d)
		}
		return
	}

	metrics, moves, execs := analysis.Derive(in, s)
	if simRes != nil && len(simRes.Events) > 0 {
		moves, execs = spansFromEvents(in, s, simRes.Events)
	}
	for _, d := range metrics.ObjectTravel {
		travel.Observe(d)
	}
	for _, nd := range metrics.PeakQueueDepth {
		reg.Gauge("queue_depth_peak").Max(nd.Peak)
	}
	col.AddRun(job, name, algorithm, s.Makespan(), metrics, moves, execs)
}

// spansFromEvents converts a simulator event stream into move/exec spans.
// The result is identical to analysis.Derive's synthesis — the simulator
// emits one depart/arrive pair per nonzero-distance relocation and one
// execute per commit under the same timing model — but using the stream
// keeps the trace a faithful subscription to what the simulator actually
// did.
func spansFromEvents(in *tm.Instance, s *schedule.Schedule, events []sim.Event) ([]obs.Move, []obs.Exec) {
	var moves []obs.Move
	var execs []obs.Exec
	for _, ev := range events {
		switch ev.Kind {
		case sim.EventDepart:
			moves = append(moves, obs.Move{
				Object: int(ev.Object), Txn: int(ev.Txn), From: int(ev.From), To: int(ev.To),
				Depart: ev.Step, Arrive: ev.Step + in.Dist(ev.From, ev.To), Used: s.Times[ev.Txn],
			})
		case sim.EventExecute:
			execs = append(execs, obs.Exec{Txn: int(ev.Txn), Node: int(ev.Node), Step: ev.Step})
		}
	}
	obs.SortSpans(moves, execs)
	return moves, execs
}
