package stream

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"dtmsched/internal/engine"
	"dtmsched/internal/graph"
	"dtmsched/internal/obs"
	"dtmsched/internal/tm"
	"dtmsched/internal/topology"
	"dtmsched/internal/xrand"
)

// serveConfig builds a clique service config with a seeded generator.
func serveConfig(t testing.TB, n, w, k, limit int, rate float64, seed int64) Config {
	t.Helper()
	topo := topology.NewClique(n)
	g := topo.Graph()
	metric := graph.FuncMetric(topo.Dist)
	rng := xrand.NewDerived(seed, "stream", "homes")
	home := make([]graph.NodeID, w)
	for o := range home {
		home[o] = g.Nodes()[rng.Intn(n)]
	}
	return Config{
		G:          g,
		Metric:     metric,
		NumObjects: w,
		Home:       home,
		Source:     NewGenerator(xrand.NewDerived(seed, "stream", "gen"), g, tm.UniformK(w, k), rate, limit),
		Verify:     engine.VerifyFast,
	}
}

// lineServeConfig builds a single-hot-object service on a line, whose
// object travel time caps the service rate well below one commit per
// step — the overload workload for the backpressure tests.
func lineServeConfig(t testing.TB, n, limit int, rate float64, seed int64) Config {
	t.Helper()
	topo := topology.NewLine(n)
	g := topo.Graph()
	return Config{
		G:          g,
		Metric:     graph.FuncMetric(topo.Dist),
		NumObjects: 1,
		Home:       []graph.NodeID{g.Nodes()[0]},
		Source:     NewGenerator(xrand.NewDerived(seed, "stream", "gen"), g, tm.SingleObject(), rate, limit),
		Verify:     engine.VerifyFast,
	}
}

func TestServeDrainsDeterministically(t *testing.T) {
	run := func() *Result {
		cfg := serveConfig(t, 24, 8, 2, 150, 0.5, 41)
		cfg.PipelineDepth = 3
		res, err := Serve(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Digest != b.Digest {
		t.Fatalf("same seed, different digests: %x vs %x", a.Digest, b.Digest)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different results:\n%+v\n%+v", a, b)
	}
	if a.Admitted != 150 || a.Committed != 150 || a.Rejected != 0 {
		t.Fatalf("block policy lost transactions: %+v", a)
	}
	if a.Windows < 2 {
		t.Fatalf("expected a multi-window stream, got %d windows", a.Windows)
	}
	var sized int
	for _, s := range a.WindowSizes {
		if s < 1 || s > 24 {
			t.Fatalf("window size %d outside [1,24]", s)
		}
		sized += s
	}
	if int64(sized) != a.Committed {
		t.Fatalf("window sizes sum %d != committed %d", sized, a.Committed)
	}
	if a.Clock < 1 || a.Throughput <= 0 {
		t.Fatalf("bad clock/throughput: %+v", a)
	}
	if a.MaxResponse < 1 || a.MeanResponse < 1 {
		t.Fatalf("responses must be ≥ 1 step: %+v", a)
	}
}

func TestServeVerifyModesAgree(t *testing.T) {
	// The verification policy spends different effort but must not
	// change a single logical decision; VerifyFull replays every window
	// in the simulator, so it also proves the cut schedules feasible.
	digests := map[engine.VerifyMode]uint64{}
	for _, mode := range []engine.VerifyMode{engine.VerifyFull, engine.VerifyFast, engine.VerifyOff} {
		cfg := serveConfig(t, 16, 6, 2, 80, 0.4, 42)
		cfg.Verify = mode
		res, err := Serve(context.Background(), cfg)
		if err != nil {
			t.Fatalf("verify=%s: %v", mode, err)
		}
		if res.Committed != 80 {
			t.Fatalf("verify=%s: committed %d", mode, res.Committed)
		}
		digests[mode] = res.Digest
	}
	if digests[engine.VerifyFull] != digests[engine.VerifyFast] || digests[engine.VerifyFast] != digests[engine.VerifyOff] {
		t.Fatalf("verify mode changed the run: %v", digests)
	}
}

// TestServeWindowVerifyPolicy: the serving loop's ChainChecker is each
// window's one Definition 1 check, so under VerifyFast and VerifyOff the
// window jobs run the engine at VerifyOff, and only VerifyFull runs them
// at VerifyFull (its simulator replay).
func TestServeWindowVerifyPolicy(t *testing.T) {
	for mode, want := range map[engine.VerifyMode]engine.VerifyMode{
		engine.VerifyFull: engine.VerifyFull,
		engine.VerifyFast: engine.VerifyOff,
		engine.VerifyOff:  engine.VerifyOff,
	} {
		cfg := serveConfig(t, 16, 6, 2, 80, 0.4, 42)
		cfg.Verify = mode
		var got []engine.VerifyMode
		cfg.Hook = func(ev engine.Event) {
			if ev.Stage == engine.StageDone && ev.Report != nil {
				got = append(got, ev.Report.Verify)
			}
		}
		res, err := Serve(context.Background(), cfg)
		if err != nil {
			t.Fatalf("verify=%s: %v", mode, err)
		}
		if len(got) != res.Windows {
			t.Fatalf("verify=%s: %d finished window jobs for %d windows", mode, len(got), res.Windows)
		}
		for w, v := range got {
			if v != want {
				t.Fatalf("verify=%s: window %d ran the engine at %s, want %s", mode, w, v, want)
			}
		}
	}
}

func TestServeRejectPolicyDropsOverflow(t *testing.T) {
	// Overload a tiny queue: one arrival per step on a 16-node line
	// sharing one hot object. The object's travel time between random
	// users caps service well below one commit per step, so the Reject
	// policy must drop arrivals — and everything admitted still
	// commits.
	cfg := lineServeConfig(t, 16, 200, 1.0, 43)
	cfg.MaxWindow = 4
	cfg.QueueCap = 4
	cfg.Policy = Reject
	res, err := Serve(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected == 0 {
		t.Fatalf("overloaded reject run dropped nothing: %+v", res)
	}
	if res.Admitted+res.Rejected != 200 {
		t.Fatalf("admitted %d + rejected %d != 200", res.Admitted, res.Rejected)
	}
	if res.Admitted != res.Committed {
		t.Fatalf("admitted %d != committed %d", res.Admitted, res.Committed)
	}
	if res.QueuePeak > 4 {
		t.Fatalf("queue peak %d exceeds cap 4", res.QueuePeak)
	}
}

func TestServeBlockPolicyIsLossless(t *testing.T) {
	cfg := lineServeConfig(t, 16, 120, 1.0, 44)
	cfg.MaxWindow = 4
	cfg.QueueCap = 4
	cfg.Policy = Block
	res, err := Serve(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected != 0 || res.Admitted != 120 || res.Committed != 120 {
		t.Fatalf("block policy must be lossless: %+v", res)
	}
	if res.Blocked == 0 {
		t.Fatalf("overloaded block run never stalled: %+v", res)
	}
	if res.QueuePeak > 4 {
		t.Fatalf("queue peak %d exceeds cap 4", res.QueuePeak)
	}
}

func TestServeSubCriticalQueueStaysBounded(t *testing.T) {
	// Well below saturation the queue never fills and no backpressure
	// fires — the stability regime of E21.
	cfg := serveConfig(t, 32, 16, 2, 200, 0.05, 45)
	res, err := Serve(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected != 0 || res.Blocked != 0 {
		t.Fatalf("sub-critical run hit backpressure: %+v", res)
	}
	if res.Admitted != 200 || res.Committed != 200 {
		t.Fatalf("stream not drained: %+v", res)
	}
	if res.QueuePeak >= 2*32 {
		t.Fatalf("sub-critical queue peak %d at default cap", res.QueuePeak)
	}
}

func TestServeCollectorMetrics(t *testing.T) {
	col := obs.NewMetricsCollector()
	cfg := serveConfig(t, 12, 6, 2, 60, 0.5, 46)
	cfg.Collector = col
	res, err := Serve(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"stream_admitted_total":  res.Admitted,
		"stream_committed_total": res.Committed,
		"stream_windows_total":   int64(res.Windows),
	}
	got := map[string]int64{}
	for _, s := range col.Registry().Snapshot() {
		got[s.Name] = s.Value
	}
	for name, v := range want {
		if got[name] != v {
			t.Fatalf("%s = %d, want %d (snapshot %v)", name, got[name], v, got)
		}
	}
	if got["stream_queue_depth_peak"] != int64(res.QueuePeak) {
		t.Fatalf("queue peak gauge %d != result %d", got["stream_queue_depth_peak"], res.QueuePeak)
	}
	if _, ok := got["stream_window_latency_steps"]; !ok {
		t.Fatal("window latency histogram missing from registry")
	}
	if _, ok := got["stream_txn_response_steps"]; !ok {
		t.Fatal("response histogram missing from registry")
	}
}

func TestServeConfigAndSourceErrors(t *testing.T) {
	base := serveConfig(t, 8, 4, 2, 20, 0.5, 47)

	bad := base
	bad.G = nil
	if _, err := Serve(context.Background(), bad); err == nil {
		t.Fatal("nil graph accepted")
	}
	bad = base
	bad.Home = bad.Home[:2]
	if _, err := Serve(context.Background(), bad); err == nil {
		t.Fatal("home/object mismatch accepted")
	}
	bad = base
	bad.Source = sliceSource{{Seq: 0, Node: base.G.Nodes()[0], Objects: []tm.ObjectID{0}, Arrive: 5},
		{Seq: 1, Node: base.G.Nodes()[1], Objects: []tm.ObjectID{0}, Arrive: 2}}.source()
	if _, err := Serve(context.Background(), bad); err == nil {
		t.Fatal("decreasing arrivals accepted")
	}
	bad = base
	bad.Source = sliceSource{{Seq: 0, Node: base.G.Nodes()[0], Objects: []tm.ObjectID{99}, Arrive: 0}}.source()
	if _, err := Serve(context.Background(), bad); err == nil {
		t.Fatal("out-of-range object accepted")
	}
	bad = base
	bad.Source = sliceSource{{Seq: 0, Node: base.G.Nodes()[0], Objects: nil, Arrive: 0}}.source()
	if _, err := Serve(context.Background(), bad); err == nil {
		t.Fatal("empty object set accepted")
	}
	// A bad node or a repeated object is the source's fault, named at
	// admission: neither may panic in the cutter or reach the checker
	// as an infeasible window.
	for _, tc := range []struct {
		name string
		it   Item
		want string
	}{
		{"node past the last", Item{Seq: 3, Node: graph.NodeID(base.G.NumNodes()), Objects: []tm.ObjectID{0}},
			"transaction 3 on node 8 outside [0,8)"},
		{"negative node", Item{Seq: 4, Node: -1, Objects: []tm.ObjectID{0}}, "transaction 4 on node -1 outside [0,8)"},
		{"repeated object", Item{Seq: 5, Node: base.G.Nodes()[1], Objects: []tm.ObjectID{1, 1}},
			"transaction 5 requests object 1 twice"},
	} {
		bad = base
		bad.Source = sliceSource{tc.it}.source()
		if _, err := Serve(context.Background(), bad); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestServeLeavesSourceObjectsUnchanged pins that admission sorts a
// private copy of an unsorted object list: the source's slice must read
// as it did before Serve.
func TestServeLeavesSourceObjectsUnchanged(t *testing.T) {
	cfg := serveConfig(t, 8, 4, 2, 50, 0.5, 48)
	objs := []tm.ObjectID{3, 1}
	cfg.Source = sliceSource{{Seq: 0, Node: cfg.G.Nodes()[0], Objects: objs}}.source()
	res, err := Serve(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != 1 {
		t.Fatalf("committed %d of 1", res.Committed)
	}
	if !reflect.DeepEqual(objs, []tm.ObjectID{3, 1}) {
		t.Fatalf("Serve reordered the source's objects to %v, want [3 1]", objs)
	}
}

func TestServeContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := serveConfig(t, 8, 4, 2, 50, 0.5, 48)
	if _, err := Serve(ctx, cfg); err == nil {
		t.Fatal("cancelled context accepted")
	}
}

func TestGeneratorPanics(t *testing.T) {
	topo := topology.NewClique(4)
	for name, mk := range map[string]func(){
		"rate": func() { NewGenerator(xrand.New(1), topo.Graph(), tm.UniformK(2, 1), 0, 5) },
		"limit": func() {
			NewGenerator(xrand.New(1), topo.Graph(), tm.UniformK(2, 1), 0.5, 0)
		},
		"pick": func() { NewGenerator(xrand.New(1), topo.Graph(), tm.Workload{W: 2, K: 1}, 0.5, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			mk()
		}()
	}
}

func TestParsePolicy(t *testing.T) {
	if p, err := ParsePolicy("block"); err != nil || p != Block {
		t.Fatalf("block: %v %v", p, err)
	}
	if p, err := ParsePolicy("reject"); err != nil || p != Reject {
		t.Fatalf("reject: %v %v", p, err)
	}
	if _, err := ParsePolicy("nope"); err == nil {
		t.Fatal("bad policy accepted")
	}
	if Block.String() != "block" || Reject.String() != "reject" {
		t.Fatal("policy names wrong")
	}
}

// sliceSource replays a fixed item list.
type sliceSource []Item

func (s sliceSource) source() Source { return &sliceIter{items: s} }

type sliceIter struct {
	items []Item
	next  int
}

func (it *sliceIter) Next() (Item, bool) {
	if it.next >= len(it.items) {
		return Item{}, false
	}
	it.next++
	return it.items[it.next-1], true
}
