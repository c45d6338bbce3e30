package experiments

import (
	"fmt"

	"dtmsched/internal/graph"
	"dtmsched/internal/stats"
	"dtmsched/internal/stream"
	"dtmsched/internal/tm"
	"dtmsched/internal/topology"
	"dtmsched/internal/xrand"
)

func init() {
	register(Experiment{ID: "E23", Title: "Robustness: chaos soak of the streaming service", Ref: "beyond the paper's model (fault-tolerant serving)", Run: runE23})
}

// runE23 soaks the streaming scheduler under seeded chaos injection at a
// ladder of fault rates per topology: recurring link outages and
// slowdowns, node crash/restart windows, and move drops drawn fresh each
// chunk (stream.NewChaos), with the health layer requeueing transactions
// homed on down nodes, shedding them past the retry budget, and the
// admission breaker shifting Block→Reject when rolling window inflation
// crosses the trip threshold. Reported per cell: goodput (committed
// transactions per step) against the fault-free baseline, the shed
// fraction, requeue volume and backlog peak, degraded windows, mean
// inflation, and breaker transitions. Checks: zero chaos reproduces the
// fault-free service bit-for-bit (digest equality), goodput at 10% chaos
// on the clique stays within 70% of fault-free, the breaker both trips
// and recovers somewhere in the soak, and the admission accounting
// (admitted = committed + shed, inflation ≥ 1) holds everywhere. Like
// E20 this leaves the paper's model: Section 2.1 has no failures, so the
// soak measures serving robustness rather than a theorem.
func runE23(cfg Config) (*Result, error) {
	chaosRates := []float64{0, 0.05, 0.10, 0.20}
	txns := 240
	if cfg.Quick {
		chaosRates = []float64{0, 0.10, 0.20}
		txns = 140
	}
	type setup struct {
		name string
		mk   func() topology.Topology
		w, k int
		rate float64 // injection rate, transactions per step
	}
	setups := []setup{
		{"clique-16", func() topology.Topology { return topology.NewClique(16) }, 16, 2, 1.0},
		{"line-16", func() topology.Topology { return topology.NewLine(16) }, 4, 1, 0.5},
	}
	res := &Result{ID: "E23", Title: "Robustness: chaos soak of the streaming service", Ref: "beyond the paper's model (fault-tolerant serving)",
		Table: stats.NewTable("topology", "chaos", "goodput", "vs-clean", "shed-frac", "requeued", "rq-peak", "degraded", "inflation", "trips", "recov")}

	serveOnce := func(su setup, chaosRate float64, trial int) (*stream.Result, error) {
		topo := su.mk()
		g := topo.Graph()
		rng := xrand.NewDerived(cfg.Seed, "E23", su.name, fmt.Sprint(trial))
		home := make([]graph.NodeID, su.w)
		for o := range home {
			home[o] = g.Nodes()[rng.Intn(g.NumNodes())]
		}
		var wl tm.Workload
		if su.k == 1 {
			wl = tm.HotspotK(su.w, su.k)
		} else {
			wl = tm.UniformK(su.w, su.k)
		}
		sc := stream.Config{
			G: g, Metric: metric(topo), NumObjects: su.w, Home: home,
			Source:        stream.NewGenerator(rng, g, wl, su.rate, txns),
			Policy:        stream.Block,
			Verify:        verifyModeFor(cfg),
			PipelineDepth: 2,
			BreakerWindow: 2,
			InflationTrip: 1.25,
			Collector:     cfg.Collector,
		}
		if chaosRate > 0 {
			inj, err := stream.NewChaos(stream.ChaosConfig{
				Rate:    chaosRate,
				Seed:    xrand.Derive(cfg.Seed, "E23", "chaos", su.name, fmt.Sprint(chaosRate), fmt.Sprint(trial)),
				Horizon: int64(2 * float64(txns) / su.rate),
			}, g)
			if err != nil {
				return nil, fmt.Errorf("E23 %s chaos %g: %w", su.name, chaosRate, err)
			}
			sc.Faults = inj
		}
		return stream.Serve(cfg.context(), sc)
	}

	zeroExact, allAccounted, allInflated := true, true, true
	var totalTrips, totalRecov int
	goodput := map[string]map[float64]float64{}
	for _, su := range setups {
		goodput[su.name] = map[float64]float64{}
		for _, chaosRate := range chaosRates {
			var gp, shedFrac, requeued, inflation float64
			var rqPeak, degraded, trips, recov int64
			for trial := 0; trial < cfg.Trials; trial++ {
				r, err := serveOnce(su, chaosRate, trial)
				if err != nil {
					return nil, err
				}
				if chaosRate == 0 {
					// The chaos-off column must be the plain fault-free
					// service: replay without any plan and compare
					// digests bit-for-bit.
					clean, err := serveOnce(su, -1, trial) // -1 skips NewChaos entirely
					if err != nil {
						return nil, err
					}
					if r.Digest != clean.Digest || r.Requeued != 0 || r.Shed != 0 || r.MeanInflation != 0 {
						zeroExact = false
					}
				}
				if r.Admitted != r.Committed+r.Shed {
					allAccounted = false
				}
				if r.MeanInflation != 0 && r.MeanInflation < 1 {
					allInflated = false
				}
				gp += r.Throughput
				if r.Admitted > 0 {
					shedFrac += float64(r.Shed) / float64(r.Admitted)
				}
				requeued += float64(r.Requeued)
				inflation += r.MeanInflation
				if int64(r.RequeuePeak) > rqPeak {
					rqPeak = int64(r.RequeuePeak)
				}
				degraded += int64(r.DegradedWindows)
				trips += int64(r.BreakerTrips)
				recov += int64(r.BreakerRecoveries)
			}
			tr := float64(cfg.Trials)
			goodput[su.name][chaosRate] = gp / tr
			totalTrips += int(trips)
			totalRecov += int(recov)
			vsClean := 1.0
			if clean := goodput[su.name][0]; clean > 0 {
				vsClean = (gp / tr) / clean
			}
			res.Table.AddRowf(su.name, fmt.Sprintf("%.2f", chaosRate),
				fmt.Sprintf("%.4f", gp/tr), fmt.Sprintf("%.3f", vsClean),
				fmt.Sprintf("%.4f", shedFrac/tr), requeued/tr, rqPeak, degraded,
				fmt.Sprintf("%.4f", inflation/tr), trips, recov)
		}
	}

	cliqueRatio := goodput["clique-16"][0.10] / goodput["clique-16"][0]
	res.Checks = append(res.Checks,
		checkf("zero chaos reproduces the fault-free service bit-for-bit", zeroExact,
			"digest equality with the injector-free run, no requeue/shed/inflation accounting"),
		checkf("goodput at 10% chaos on the clique stays within 70% of fault-free", cliqueRatio >= 0.70,
			"goodput ratio %.3f (want ≥ 0.70)", cliqueRatio),
		checkf("the admission breaker trips and recovers during the soak", totalTrips >= 1 && totalRecov >= 1,
			"%d trips, %d recoveries across all cells", totalTrips, totalRecov),
		checkf("admission accounting holds under chaos", allAccounted && allInflated,
			"admitted = committed + shed everywhere, mean window inflation ≥ 1 whenever faults engaged"))
	res.Notes = append(res.Notes,
		"chaos plans redraw every fault site per chunk (faults.Config.Recur), so pressure persists across the soak instead of clustering near step 0",
		"the breaker converts Block admission to Reject while open: overload under faults surfaces as rejections and shed transactions, never as a stuck queue",
		"same seed ⇒ identical chaos plan, admission order, requeues, sheds, and breaker transitions at every worker count (digest-pinned in internal/stream)")
	return res, nil
}
