package experiments

import (
	"fmt"

	"dtmsched/internal/engine"
	"dtmsched/internal/graph"
	"dtmsched/internal/stats"
	"dtmsched/internal/stream"
	"dtmsched/internal/tm"
	"dtmsched/internal/topology"
	"dtmsched/internal/xrand"
)

func init() {
	register(Experiment{ID: "E21", Title: "Extension: streaming service, injection rate vs sustainable throughput", Ref: "Section 9 (open question: continuous arrivals)", Run: runE21})
}

// runE21 sweeps the streaming scheduler (internal/stream) over injection
// rate × topology with the lossless Block policy: transactions arrive
// from a seeded generator, rolling windows are cut and chained, and the
// run drains completely. Utilization
// (throughput / offered rate) shows where each topology saturates: the
// clique sustains rates the line cannot, because the line's object
// travel time caps its service rate — the streaming analogue of the
// paper's O(n) vs O(1)-per-window gap.
func runE21(cfg Config) (*Result, error) {
	rates := []float64{0.1, 0.3, 0.6, 1.0}
	txns := 240
	if cfg.Quick {
		rates = []float64{0.1, 1.0}
		txns = 120
	}
	type setup struct {
		name string
		mk   func() topology.Topology
		w, k int
	}
	setups := []setup{
		{"clique-16", func() topology.Topology { return topology.NewClique(16) }, 16, 2},
		{"line-16", func() topology.Topology { return topology.NewLine(16) }, 4, 1},
	}
	res := &Result{ID: "E21", Title: "Extension: streaming service, injection rate vs sustainable throughput", Ref: "Section 9 (open question: continuous arrivals)",
		Table: stats.NewTable("topology", "rate", "throughput", "util", "resp-mean", "resp-max", "queue-peak", "blocked")}

	lossless := true
	util := map[string]map[float64]float64{}
	resp := map[string]map[float64]float64{}
	for _, su := range setups {
		util[su.name] = map[float64]float64{}
		resp[su.name] = map[float64]float64{}
		for _, rate := range rates {
			var thrSum, utilSum, respSum float64
			var respMax, queuePeak, blocked int64
			for trial := 0; trial < cfg.Trials; trial++ {
				topo := su.mk()
				g := topo.Graph()
				rng := xrand.NewDerived(cfg.Seed, "E21", su.name, fmt.Sprint(rate), fmt.Sprint(trial))
				home := make([]graph.NodeID, su.w)
				for o := range home {
					home[o] = g.Nodes()[rng.Intn(g.NumNodes())]
				}
				var wl tm.Workload
				if su.k == 1 && su.w == 4 {
					wl = tm.HotspotK(su.w, su.k) // skewed contention stresses the line
				} else {
					wl = tm.UniformK(su.w, su.k)
				}
				r, err := stream.Serve(cfg.context(), stream.Config{
					G: g, Metric: metric(topo), NumObjects: su.w, Home: home,
					Source:        stream.NewGenerator(rng, g, wl, rate, txns),
					Policy:        stream.Block,
					Verify:        verifyModeFor(cfg),
					PipelineDepth: 2,
					Collector:     cfg.Collector,
				})
				if err != nil {
					return nil, err
				}
				if r.Rejected != 0 || r.Admitted != int64(txns) || r.Committed != int64(txns) {
					lossless = false
				}
				offered := rate
				if offered > 1 {
					offered = 1
				}
				thrSum += r.Throughput
				utilSum += r.Throughput / offered
				respSum += r.MeanResponse
				if r.MaxResponse > respMax {
					respMax = r.MaxResponse
				}
				if int64(r.QueuePeak) > queuePeak {
					queuePeak = int64(r.QueuePeak)
				}
				blocked += r.Blocked
			}
			tr := float64(cfg.Trials)
			util[su.name][rate] = utilSum / tr
			resp[su.name][rate] = respSum / tr
			res.Table.AddRowf(su.name, rate, thrSum/tr, utilSum/tr, respSum/tr, respMax, queuePeak, blocked)
		}
	}

	lo, hi := rates[0], rates[len(rates)-1]
	res.Checks = append(res.Checks,
		checkf("block policy is lossless at every rate", lossless,
			"admitted and committed must both equal the %d offered transactions", txns),
		checkf("sub-critical injection is sustained", util["clique-16"][lo] >= 0.85 && util["line-16"][lo] >= 0.85,
			"utilization at rate %.1f: clique %.2f, line %.2f (want ≥ 0.85)", lo, util["clique-16"][lo], util["line-16"][lo]),
		checkf("the line saturates below the clique", util["line-16"][hi] < util["clique-16"][hi],
			"utilization at rate %.1f: line %.2f vs clique %.2f — object travel time caps the line's service rate", hi, util["line-16"][hi], util["clique-16"][hi]),
		checkf("response time grows with injection rate", resp["line-16"][hi] > resp["line-16"][lo],
			"line mean response %.1f → %.1f steps from rate %.1f to %.1f", resp["line-16"][lo], resp["line-16"][hi], lo, hi))
	res.Notes = append(res.Notes,
		"Block policy: overload surfaces as queueing delay (resp-mean, queue-peak), never as loss; the reject policy trades exactly this delay for drops",
		"same seed ⇒ identical admission order, window cuts, and commit steps (stream.Result.Digest pins this in the package tests)")
	return res, nil
}

// verifyModeFor picks the per-window verification depth: full replay
// normally, the serving loop's own Definition 1 check alone when the
// sweep is shrunk for CI.
func verifyModeFor(cfg Config) engine.VerifyMode {
	if cfg.Quick {
		return engine.VerifyFast
	}
	return engine.VerifyFull
}
