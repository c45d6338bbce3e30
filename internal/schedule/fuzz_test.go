package schedule_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dtmsched/internal/baseline"
	"dtmsched/internal/core"
	"dtmsched/internal/exact"
	"dtmsched/internal/faults"
	"dtmsched/internal/graph"
	"dtmsched/internal/hier"
	"dtmsched/internal/schedule"
	"dtmsched/internal/sim"
	"dtmsched/internal/tm"
	"dtmsched/internal/topology"
	"dtmsched/internal/windows"
)

// FuzzVerifiersAgree differentially tests the two independent Definition 1
// verifiers, schedule.Validate (the ChainChecker) and the step-by-step
// simulator sim.Run. Every scheduler family's output on a tiny seeded
// instance must pass both, with every object's checker travel equal to
// Schedule.Travel, to the walk along its Handoffs and to the simulator's
// (whose communication cost is their sum), and Makespan equal to the
// schedule's; chained over a window sequence, the checker's travel must
// sum to the windows' Travel against the homes each cut held; a
// mutated copy (one commit pulled a step earlier, or the times of two
// conflicting transactions swapped) must get the same verdict from both.
// On the scheduler outputs the simulator is also checked against the
// exact optimum and under seeded faults (see certify).
func FuzzVerifiersAgree(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, pick uint16, swap bool) {
		r := rand.New(rand.NewSource(seed))
		n := 2 + int(shape/3)%7
		topo := []topology.Topology{topology.NewLine(n), topology.NewGrid(2, (n+1)/2), topology.NewClique(n)}[shape%3]
		w := 1 + r.Intn(4)
		wl := tm.UniformK(w, 1+r.Intn(min(w, 3)))
		g := topo.Graph()
		in := wl.Generate(r, g, topo, g.Nodes(), tm.PlaceAtRandomUser)
		fc := topology.NewFogCloud([]int{2, 2}, []int64{1 + int64(pick%4), 1})
		fin := wl.Generate(r, fc.Graph(), fc, fc.Graph().Nodes(), tm.PlaceAtRandomUser)
		for _, sc := range []core.Scheduler{&core.Greedy{}, baseline.List{}, baseline.Sequential{}, &hier.Scheduler{Topo: fc}} {
			at := in
			if _, ok := sc.(*hier.Scheduler); ok {
				at = fin
			}
			res, err := sc.Schedule(at)
			if err != nil {
				t.Fatalf("%s: %v", sc.Name(), err)
			}
			agree(t, sc.Name(), at, res.Schedule, int(pick), swap)
			certify(t, sc.Name(), at, res.Schedule, seed)
		}

		seq, err := windows.Generate(r, g, topo, wl, 2, tm.PlaceAtRandomUser)
		if err != nil {
			t.Fatal(err)
		}
		for _, pipelined := range []bool{false, true} {
			res, err := windows.Run(seq, pipelined)
			if err != nil {
				t.Fatal(err)
			}
			// Chained, the checker walks each object's handoffs across
			// windows once; each window's own Travel starts from the
			// homes the release chain held at its cut. Flattened, a node
			// hosts one transaction per window.
			checker := schedule.NewChainChecker(seq.Home)
			chain := schedule.NewChain(topo, seq.Home, g.NumNodes())
			var txns []tm.Txn
			var perWindow int64
			flat := &schedule.Schedule{}
			for wi, win := range seq.Windows {
				ws := res.PerWindow[wi]
				if err := checker.Check(win, ws); err != nil {
					t.Fatalf("%s: chained checker rejects window %d: %v", res.Mode, wi, err)
				}
				shadow := make([]tm.Txn, len(win.Txns))
				for i, txn := range win.Txns {
					shadow[i] = tm.Txn{Node: txn.Node, Objects: txn.Objects}
					txns = append(txns, shadow[i])
				}
				perWindow += sum(ws.Travel(tm.NewInstance(g, topo, w, shadow, chain.Homes())))
				for i, txn := range win.Txns {
					chain.Commit(txn.Node, txn.Objects, ws.Times[i])
				}
				flat.Times = append(flat.Times, ws.Times...)
			}
			if chained := sum(checker.Travel()); chained != perWindow {
				t.Fatalf("%s: chained checker travel %d, per-window travel %d", res.Mode, chained, perWindow)
			}
			agree(t, res.Mode, tm.NewInstance(g, topo, w, txns, seq.Home), flat, int(pick), swap)
		}
	})
}

// agree asserts that both verifiers accept s, with the simulator measuring
// s's makespan and communication cost, then that they reach the same
// verdict on a mutated copy.
func agree(t *testing.T, name string, in *tm.Instance, s *schedule.Schedule, pick int, swap bool) {
	t.Helper()
	checker := schedule.NewChainChecker(in.Home)
	if err := checker.Check(in, s); err != nil {
		t.Fatalf("%s: Validate rejects: %v", name, err)
	}
	res, err := sim.Run(in, s, sim.Options{})
	if err != nil {
		t.Fatalf("%s: sim rejects: %v", name, err)
	}
	walk, travel := checker.Travel(), s.Travel(in)
	handoffs := make([]int64, in.NumObjects)
	h := s.Handoffs(in)
	for o := range handoffs {
		at := in.Home[o]
		for _, id := range h.Of(tm.ObjectID(o)) {
			handoffs[o] += in.Dist(at, in.Txns[id].Node)
			at = in.Txns[id].Node
		}
	}
	if !slices.Equal(walk, travel) || !slices.Equal(travel, handoffs) || !slices.Equal(travel, res.ObjectDistance) {
		t.Fatalf("%s: per-object travel: checker %v, Schedule.Travel %v, Handoffs %v, sim %v",
			name, walk, travel, handoffs, res.ObjectDistance)
	}
	if c := sum(travel); c != res.CommCost {
		t.Fatalf("%s: travel sums to %d, sim measured %d", name, c, res.CommCost)
	}
	if m := s.Makespan(); m != res.Makespan {
		t.Fatalf("%s: Makespan %d, sim measured %d", name, m, res.Makespan)
	}
	bad := s.Clone()
	mutate(in, bad, pick, swap)
	checkErr := bad.Validate(in)
	_, simErr := sim.Run(in, bad, sim.Options{})
	// Node exclusivity lies outside the simulator's model; it only bites
	// on flattened windows, where a node hosts several transactions.
	if (checkErr != nil) != (simErr != nil || nodeTie(in, bad)) {
		t.Fatalf("%s: verifiers disagree on %v: Validate %v, sim %v", name, bad.Times, checkErr, simErr)
	}
}

// certify checks the feasible schedule s against the exact optimum and
// replays it under faults: a seeded plan must recover deterministically,
// commit every transaction, and never beat the fault-free makespan, and a
// plan whose faults all start after the makespan must leave the fault-free
// Result untouched apart from its Fault report.
func certify(t *testing.T, name string, in *tm.Instance, s *schedule.Schedule, seed int64) {
	t.Helper()
	m := s.Makespan()
	opt, err := exact.Optimal(in, exact.Options{})
	if err != nil {
		t.Fatalf("%s: exact: %v", name, err)
	}
	if opt.Makespan > m {
		t.Fatalf("%s: exact optimum %d exceeds the feasible makespan %d", name, opt.Makespan, m)
	}

	plan := faults.MustNew(faults.Config{Seed: seed, Horizon: m,
		LinkDownRate: 0.3, LinkSlowRate: 0.3, CrashRate: 0.15, DropRate: 0.1}, in.G)
	replay := func(inj *faults.Plan) *sim.Result {
		res, err := sim.Run(in, s, sim.Options{Trace: true, Faults: inj})
		if err != nil {
			t.Fatalf("%s: faulty replay: %v", name, err)
		}
		return res
	}
	a, b := replay(plan), replay(plan)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: faulty replay is nondeterministic", name)
	}
	if a.Executed != in.NumTxns() {
		t.Fatalf("%s: faulty replay executed %d of %d transactions", name, a.Executed, in.NumTxns())
	}
	if a.Fault != nil && a.Fault.Makespan < m {
		t.Fatalf("%s: faulty makespan %d beats the fault-free %d", name, a.Fault.Makespan, m)
	}

	u, v := graph.NodeID(0), in.G.Neighbors(0)[0].To
	late := faults.MustFromFaults(
		faults.Fault{Kind: faults.LinkDown, From: m + 1, To: m + 5, U: u, V: v},
		faults.Fault{Kind: faults.LinkSlow, From: m + 2, To: m + 9, U: u, V: v, Factor: 4},
		faults.Fault{Kind: faults.NodeCrash, From: m + 1, To: m + 3, Node: v},
	)
	got, want := replay(late), replay(nil)
	if got.Fault == nil || got.Fault.Makespan != m {
		t.Fatalf("%s: late plan report %v, want makespan %d", name, got.Fault, m)
	}
	got.Fault = nil
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: faults after the makespan changed the replay:\n%+v\nvs\n%+v", name, got, want)
	}
}

// mutate swaps the times of two users of a shared object (when swap is set
// and one exists) or pulls one commit a step earlier.
func mutate(in *tm.Instance, s *schedule.Schedule, pick int, swap bool) {
	for o := 0; swap && o < in.NumObjects; o++ {
		users := in.Users(tm.ObjectID((o + pick) % in.NumObjects))
		if len(users) >= 2 {
			a, b := users[pick%len(users)], users[(pick+1)%len(users)]
			s.Times[a], s.Times[b] = s.Times[b], s.Times[a]
			return
		}
	}
	s.Times[pick%len(s.Times)]--
}

// nodeTie reports whether two transactions on one node share a step.
func nodeTie(in *tm.Instance, s *schedule.Schedule) bool {
	seen := map[[2]int64]bool{}
	for i, txn := range in.Txns {
		k := [2]int64{int64(txn.Node), s.Times[i]}
		if seen[k] {
			return true
		}
		seen[k] = true
	}
	return false
}

// sum adds up per-object travel.
func sum(travel []int64) (total int64) {
	for _, d := range travel {
		total += d
	}
	return total
}
