package experiments

import (
	"fmt"

	"dtmsched/internal/core"
	"dtmsched/internal/engine"
	"dtmsched/internal/faults"
	"dtmsched/internal/stats"
	"dtmsched/internal/tm"
	"dtmsched/internal/topology"
	"dtmsched/internal/xrand"
)

func init() {
	register(Experiment{ID: "E20", Title: "Robustness: makespan inflation under injected faults", Ref: "beyond the paper's model", Run: runE20})
}

// runE20 replays verified schedules under seeded fault injection — link
// outages and slowdowns, node crash/restart windows, transient move drops
// — at a ladder of fault rates, and reports the recovery work and the
// makespan inflation factor per (topology, rate). The rates parameterize
// faults.Config: LinkDownRate = LinkSlowRate = rate, CrashRate = rate/2,
// DropRate = rate/4. Checks: rate 0 reproduces the fault-free run exactly
// (inflation 1, zero recovery counters), faults only ever delay
// (inflation ≥ 1 everywhere), and the highest rate costs at least as much
// as rate 0. This experiment leaves the paper's model: Section 2.1 has no
// failures, so the inflation factors quantify schedule robustness rather
// than reproduce a theorem.
func runE20(cfg Config) (*Result, error) {
	rates := []float64{0, 0.02, 0.05, 0.10}
	if cfg.Quick {
		rates = []float64{0, 0.05}
	}
	if len(cfg.FaultRates) > 0 {
		rates = cfg.FaultRates
	}
	type setup struct {
		name string
		mk   func(seed int64) (*tm.Instance, core.Scheduler)
	}
	setups := []setup{
		{"grid-12", func(seed int64) (*tm.Instance, core.Scheduler) {
			topo := topology.NewSquareGrid(12)
			in := tm.UniformK(36, 2).Generate(xrand.New(seed), topo.Graph(), metric(topo), topo.Graph().Nodes(), tm.PlaceAtRandomUser)
			return in, &core.Grid{Topo: topo}
		}},
		{"clique-64", func(seed int64) (*tm.Instance, core.Scheduler) {
			topo := topology.NewClique(64)
			in := tm.UniformK(16, 2).Generate(xrand.New(seed), topo.Graph(), metric(topo), topo.Graph().Nodes(), tm.PlaceAtRandomUser)
			return in, &core.Greedy{}
		}},
	}
	if cfg.Quick {
		setups = setups[:1]
	}

	res := &Result{ID: "E20", Title: "Robustness: makespan inflation under injected faults", Ref: "beyond the paper's model",
		Table: stats.NewTable("instance", "rate", "faults", "retries", "reroutes", "blocked", "deferred", "inflation")}

	// Phase 1: schedule every (setup, trial) once, fault-free — the
	// planned schedule and its makespan are the injection baseline.
	type base struct {
		in       *tm.Instance
		schedRes *core.Result
	}
	bases := make(map[string][]base, len(setups))
	for _, su := range setups {
		for trial := 0; trial < cfg.Trials; trial++ {
			in, sched := su.mk(cfg.Seed + int64(trial))
			cfg.prepare(in)
			r, err := sched.Schedule(in)
			if err != nil {
				return nil, fmt.Errorf("E20 %s trial %d: %w", su.name, trial, err)
			}
			bases[su.name] = append(bases[su.name], base{in: in, schedRes: r})
		}
	}

	// Phase 2: one engine job per (setup, rate, trial), fanned out over
	// the worker pool. Rate 0 gets no plan, so it exercises the plain
	// fault-free replay path.
	var jobs []engine.Job
	for _, su := range setups {
		for ri, rate := range rates {
			for trial := 0; trial < cfg.Trials; trial++ {
				b := bases[su.name][trial]
				var inj *faults.Plan
				if rate > 0 {
					plan, err := faults.New(faults.Config{
						Seed:         xrand.Derive(cfg.Seed, "E20", su.name, fmt.Sprint(rate), fmt.Sprint(trial)),
						Horizon:      b.schedRes.Makespan,
						LinkDownRate: rate,
						LinkSlowRate: rate,
						CrashRate:    rate / 2,
						DropRate:     rate / 4,
					}, b.in.G)
					if err != nil {
						return nil, fmt.Errorf("E20 %s rate %g: %w", su.name, rate, err)
					}
					inj = plan
				}
				jobs = append(jobs, engine.Job{
					Name:           fmt.Sprintf("E20/%s/r%d/t%d", su.name, ri, trial),
					Instance:       b.in,
					Schedule:       b.schedRes.Schedule,
					Algorithm:      b.schedRes.Algorithm,
					Faults:         inj,
					SkipLowerBound: true,
				})
			}
		}
	}
	results, err := engine.RunBatch(cfg.context(), jobs, engine.Options{Workers: cfg.Workers, Collector: cfg.Collector})
	if err != nil {
		return nil, err
	}
	reports, err := engine.Reports(results)
	if err != nil {
		return nil, err
	}

	zeroExact, allInflated := true, true
	inflationAt := map[string]map[float64]float64{}
	i := 0
	for _, su := range setups {
		inflationAt[su.name] = map[float64]float64{}
		for _, rate := range rates {
			var nf, retries, reroutes, blocked, deferred, inflation float64
			for trial := 0; trial < cfg.Trials; trial++ {
				rep := reports[i]
				i++
				fr := rep.Fault
				if rate == 0 {
					// The fault-free column: no plan, so no report —
					// and the replay must land exactly on the plan.
					if fr != nil || rep.Counters.SimSteps != rep.Makespan {
						zeroExact = false
					}
					inflation += 1.0
					continue
				}
				if fr == nil {
					return nil, fmt.Errorf("E20 %s rate %g: fault-injected run carries no report", su.name, rate)
				}
				if fr.Inflation < 1.0 {
					allInflated = false
				}
				nf += float64(fr.Faults)
				retries += float64(fr.Retries)
				reroutes += float64(fr.Reroutes)
				blocked += float64(fr.BlockedWaits)
				deferred += float64(fr.DeferredCommits)
				inflation += fr.Inflation
			}
			tr := float64(cfg.Trials)
			inflationAt[su.name][rate] = inflation / tr
			res.Table.AddRowf(su.name, fmt.Sprintf("%.2f", rate), nf/tr, retries/tr, reroutes/tr, blocked/tr, deferred/tr, fmt.Sprintf("%.4f", inflation/tr))
		}
	}

	monotoneEnds := true
	for _, su := range setups {
		if inflationAt[su.name][rates[len(rates)-1]] < inflationAt[su.name][rates[0]]-1e-9 {
			monotoneEnds = false
		}
	}
	res.Checks = append(res.Checks,
		checkf("zero fault rate reproduces the fault-free run exactly", zeroExact, "no fault report, recovered makespan equals the plan"),
		checkf("faults only delay: inflation ≥ 1 everywhere", allInflated, "the planned commit step is a floor under recovery"),
		checkf("highest fault rate costs at least as much as rate 0", monotoneEnds, "mean inflation is ≥ 1 at the top of the ladder"))
	res.Notes = append(res.Notes,
		"outside the paper's model: Section 2.1 assumes a failure-free network, so these inflation factors measure schedule robustness, not a theorem",
		"recovery policy: dropped moves re-dispatch with bounded exponential backoff, blocked moves reroute on the surviving subgraph, crashed nodes defer their commits to restart")
	return res, nil
}
