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

// refSweepOrder is the (time, ID) comparison sort the checker's counting
// sweep must reproduce.
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

// checkSweep compares c's sweep order over times with the reference.
func checkSweep(t *testing.T, name string, c *ChainChecker, times []int64) {
	t.Helper()
	var lo, hi int64
	for i, v := range times {
		if i == 0 || v < lo {
			lo = v
		}
		hi = max(hi, v)
	}
	if got, want := c.sweepOrder(times, lo, hi), refSweepOrder(times); !slices.Equal(got, want) {
		t.Fatalf("%s: sweep order %v, want %v", name, got, want)
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
