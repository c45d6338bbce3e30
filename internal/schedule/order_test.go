package schedule

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"dtmsched/internal/graph"
	"dtmsched/internal/keysort"
	"dtmsched/internal/tm"
	"dtmsched/internal/topology"
)

// refSweepOrder is the (time, ID) comparison sort the counting sweep
// must reproduce.
func refSweepOrder(times []int64) []tm.TxnID {
	order := make([]tm.TxnID, len(times))
	for i := range order {
		order[i] = tm.TxnID(i)
	}
	slices.SortFunc(order, func(a, b tm.TxnID) int {
		return cmp.Or(cmp.Compare(times[a], times[b]), cmp.Compare(a, b))
	})
	return order
}

// checkSweep compares the sweep over times, counted on c's scratch, with
// the reference.
func checkSweep(t *testing.T, name string, c *ChainChecker, times []int64) {
	t.Helper()
	c.order, c.counts = sweep(c.order, c.counts, times)
	if want := refSweepOrder(times); !slices.Equal(c.order, want) {
		t.Fatalf("%s: sweep order %v, want %v", name, c.order, want)
	}
}

// TestSweepOrderMatchesReference: the Definition 1 sweep visits a window
// in (time, ID) order on empty and single-member windows, on duplicate
// times, and on step spans just under and just over each threshold: the
// stack array's keysort.StackSpan, and 16 steps per transaction, past
// which the sweep compares. One checker runs every case, so its count
// scratch is reused dirty.
func TestSweepOrderMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	c := NewChainChecker(nil)
	checkSweep(t, "empty", c, nil)
	checkSweep(t, "single", c, []int64{9})
	for _, tc := range []struct {
		name string
		n    int
		span int64
	}{
		{"window", 56, 112},
		{"under-16n", 8, 16 * 8},
		{"over-16n", 8, 16*8 + 1},
		{"under-stack", 100, keysort.StackSpan},
		{"over-stack", 100, keysort.StackSpan + 1},
		{"under-16n-scratch", 100, 16 * 100},
		{"over-16n-scratch", 100, 16*100 + 1},
		{"over-stack-again", 70, keysort.StackSpan + 50},
	} {
		for _, lo := range []int64{1, 1 << 40} {
			times := make([]int64, tc.n)
			for i := range times {
				times[i] = lo + r.Int63n(tc.span)
			}
			times[0], times[tc.n-1] = lo, lo+tc.span-1
			r.Shuffle(tc.n, func(i, j int) { times[i], times[j] = times[j], times[i] })
			checkSweep(t, tc.name, c, times)
		}
	}
}

// TestHandoffsMatchReference: on random schedules, Handoffs gives the
// reference sweep and, per object, its users sorted by (time, ID), and
// Travel walks each object's reference order from its home. The
// schedules cover ties, spans for each way the sweep orders (stack
// counts, scratch counts and, past keysort.Fits, comparison), objects
// nobody requests, and times no feasible schedule has (zero, negative,
// shared by users of one object).
func TestHandoffsMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	g := graph.New(6)
	for i := 0; i < 5; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1+int64(i%3))
	}
	for _, tc := range []struct {
		name   string
		n      int
		lo     int64
		span   int64
		unused int // objects past the requested ones
	}{
		{"empty", 0, 1, 1, 3},
		{"ties", 30, 1, 4, 0},
		{"stack", 40, 1, keysort.StackSpan, 5},
		{"scratch", 40, 7, 16 * 40, 0},
		{"compare", 40, 1, 16*40 + 1, 2},
		{"far", 25, 1 << 40, 1 << 41, 4},
		{"infeasible", 30, -5, 11, 1},
	} {
		for trial := 0; trial < 20; trial++ {
			w := 1 + r.Intn(8)
			txns := make([]tm.Txn, tc.n)
			for i := range txns {
				objs := r.Perm(w)[:1+r.Intn(min(w, 3))]
				slices.Sort(objs)
				txns[i] = tm.Txn{Node: graph.NodeID(r.Intn(g.NumNodes()))}
				for _, o := range objs {
					txns[i].Objects = append(txns[i].Objects, tm.ObjectID(o))
				}
			}
			home := make([]graph.NodeID, w+tc.unused)
			for o := range home {
				home[o] = graph.NodeID(r.Intn(g.NumNodes()))
			}
			in := tm.NewInstance(g, nil, len(home), txns, home)
			s := New(tc.n)
			for i := range s.Times {
				s.Times[i] = tc.lo + r.Int63n(tc.span)
			}
			h := s.Handoffs(in)
			if want := refSweepOrder(s.Times); !slices.Equal(h.Sweep, want) {
				t.Fatalf("%s: sweep %v, want %v", tc.name, h.Sweep, want)
			}
			travel := s.Travel(in)
			for o := range home {
				want := slices.Clone(in.Users(tm.ObjectID(o)))
				slices.SortFunc(want, func(a, b tm.TxnID) int {
					return cmp.Or(cmp.Compare(s.Times[a], s.Times[b]), cmp.Compare(a, b))
				})
				if got := h.Of(tm.ObjectID(o)); !slices.Equal(got, want) {
					t.Fatalf("%s: object %d handoffs %v, want %v (times %v)", tc.name, o, got, want, s.Times)
				}
				var walk int64
				at := home[o]
				for _, id := range want {
					walk += in.Dist(at, in.Txns[id].Node)
					at = in.Txns[id].Node
				}
				if travel[o] != walk {
					t.Fatalf("%s: object %d travel %d, want %d", tc.name, o, travel[o], walk)
				}
			}
		}
	}
}

// FuzzCountingOrder: on any window the sweep order equals the reference.
// Byte i times scale is transaction i's step past base·2³²; repeated
// bytes repeat steps.
func FuzzCountingOrder(f *testing.F) {
	c := NewChainChecker(nil)
	f.Fuzz(func(t *testing.T, data []byte, scale uint16, base uint8) {
		times := make([]int64, min(len(data), 600))
		for i := range times {
			times[i] = 1 + int64(base)<<32 + int64(data[i])*int64(scale)
		}
		checkSweep(t, "fuzz", c, times)
	})
}

// grid16Window is a serving-sized window: 56 transactions on distinct
// nodes of a 16×16 grid, two of 64 objects each, list-scheduled from the
// object homes. Shifting its times by the returned step count (its
// makespan plus the grid's diameter) gives a window that checks feasibly
// after it.
func grid16Window() (*tm.Instance, *Schedule, int64) {
	r := rand.New(rand.NewSource(16))
	topo := topology.NewSquareGrid(16)
	g := topo.Graph()
	txns := make([]tm.Txn, 56)
	for i, v := range r.Perm(g.NumNodes())[:len(txns)] {
		objs := r.Perm(64)[:2]
		txns[i] = tm.Txn{Node: graph.NodeID(v), Objects: []tm.ObjectID{tm.ObjectID(objs[0]), tm.ObjectID(objs[1])}}
	}
	home := make([]graph.NodeID, 64)
	for o := range home {
		home[o] = graph.NodeID(r.Intn(g.NumNodes()))
	}
	in := tm.NewInstance(g, graph.FuncMetric(topo.Dist), 64, txns, home)
	chain := NewChain(in.Metric, in.Home, g.NumNodes())
	s := New(in.NumTxns())
	for i := range in.Txns {
		s.Times[i] = chain.Earliest(in.Txns[i].Node, in.Txns[i].Objects)
		chain.Commit(in.Txns[i].Node, in.Txns[i].Objects, s.Times[i])
	}
	return in, s, s.Makespan() + 30
}

// TestCheckWarmZeroAllocs: once its scratch is sized, the checker walks a
// serving-sized window without allocating: the sweep's step counts live
// on the stack.
func TestCheckWarmZeroAllocs(t *testing.T) {
	in, s, next := grid16Window()
	c := NewChainChecker(in.Home)
	if allocs := testing.AllocsPerRun(100, func() {
		if err := c.Check(in, s); err != nil {
			t.Fatal(err)
		}
		s.Shift(next)
	}); allocs != 0 {
		t.Fatalf("warm Check allocated %.1f times per window, want 0", allocs)
	}
}

// BenchmarkChainCheckerWindow checks a serving-sized grid16 window after
// itself, window after window, as the serving loop's checker does.
func BenchmarkChainCheckerWindow(b *testing.B) {
	in, s, next := grid16Window()
	c := NewChainChecker(in.Home)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Check(in, s); err != nil {
			b.Fatal(err)
		}
		s.Shift(next)
	}
}
