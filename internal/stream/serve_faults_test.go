package stream

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"dtmsched/internal/engine"
	"dtmsched/internal/faults"
	"dtmsched/internal/graph"
	"dtmsched/internal/tm"
	"dtmsched/internal/topology"
	"dtmsched/internal/xrand"
)

// TestServeZeroFaultDigestPinned pins the fault-free serving digest and
// communication cost: the fault-tolerance layer must be byte-invisible
// when no plan is configured — same digest with a nil plan, an
// explicitly empty plan, or fault knobs set without a plan — and
// the cost, summed from the cross-window checker's travel, must hold at
// every pipeline depth.
func TestServeZeroFaultDigestPinned(t *testing.T) {
	pins := []struct {
		name     string
		mk       func() Config
		want     uint64
		wantComm int64
	}{
		{"clique24", func() Config {
			cfg := serveConfig(t, 24, 8, 2, 150, 0.5, 41)
			cfg.PipelineDepth = 3
			return cfg
		}, 0xf3776ca50e2a89b1, 287},
		{"clique16", func() Config {
			return serveConfig(t, 16, 6, 2, 80, 0.4, 42)
		}, 0xeae21719957f6c2c, 152},
	}
	for _, p := range pins {
		base, err := Serve(context.Background(), p.mk())
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if base.Digest != p.want {
			t.Errorf("%s: zero-fault digest %016x, want pinned %016x", p.name, base.Digest, p.want)
		}
		for _, depth := range []int{1, 2, 4} {
			cfg := p.mk()
			cfg.PipelineDepth = depth
			res, err := Serve(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s depth %d: %v", p.name, depth, err)
			}
			if res.CommCost != p.wantComm || res.Digest != p.want {
				t.Errorf("%s depth %d: comm cost %d digest %016x, want pinned %d %016x",
					p.name, depth, res.CommCost, res.Digest, p.wantComm, p.want)
			}
		}
		empty := p.mk()
		empty.Faults = faults.MustFromFaults() // empty plan, not nil
		empty.MaxRequeue = 7
		empty.InflationTrip = 1.01
		empty.BreakerWindow = 2
		re, err := Serve(context.Background(), empty)
		if err != nil {
			t.Fatalf("%s empty-plan: %v", p.name, err)
		}
		if re.Digest != base.Digest {
			t.Errorf("%s: empty plan changed the digest: %016x vs %016x", p.name, re.Digest, base.Digest)
		}
		if re.Requeued != 0 || re.Shed != 0 || re.BreakerTrips != 0 || re.MeanInflation != 0 {
			t.Errorf("%s: empty plan produced fault accounting: %+v", p.name, re)
		}
	}
}

// chaosConfig is the pinned chaos-soak setup shared by the determinism
// tests: clique-16 at 15% chaos with per-chunk redraws.
func chaosConfig(t *testing.T, depth int) Config {
	t.Helper()
	cfg := serveConfig(t, 16, 8, 2, 200, 0.6, 77)
	inj, err := NewChaos(ChaosConfig{Rate: 0.15, Seed: 99, Horizon: 1200, Chunk: 64}, cfg.G)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = inj
	cfg.PipelineDepth = depth
	return cfg
}

// TestServeChaosDeterministicAcrossDepths pins the chaos digest and
// requires bit-identical runs at every pipeline depth: the executor's
// feedback is drained at deterministic points, so wall-clock overlap
// must never leak into a decision.
func TestServeChaosDeterministicAcrossDepths(t *testing.T) {
	const want = uint64(0xb35dc9c44d429827)
	var first *Result
	for _, depth := range []int{1, 2, 4} {
		res, err := Serve(context.Background(), chaosConfig(t, depth))
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		if res.Digest != want {
			t.Errorf("depth %d: chaos digest %016x, want pinned %016x", depth, res.Digest, want)
		}
		if first == nil {
			first = res
		} else if !reflect.DeepEqual(res, first) {
			t.Errorf("depth %d: result differs from depth 1:\n%+v\nvs\n%+v", depth, res, first)
		}
	}
	if first.Requeued == 0 {
		t.Error("chaos soak never requeued — the health layer did not engage")
	}
	if first.MeanInflation < 1 {
		t.Errorf("mean inflation %v < 1", first.MeanInflation)
	}
	if first.Admitted != first.Committed+first.Shed {
		t.Errorf("admitted %d != committed %d + shed %d", first.Admitted, first.Committed, first.Shed)
	}
}

// faultSliceConfig builds a 4-node clique service over a fixed item list.
func faultSliceConfig(t *testing.T, items []Item) Config {
	t.Helper()
	topo := topology.NewClique(4)
	g := topo.Graph()
	return Config{
		G:          g,
		Metric:     graph.FuncMetric(topo.Dist),
		NumObjects: 2,
		Home:       []graph.NodeID{g.Nodes()[0], g.Nodes()[0]},
		Source:     sliceSource(items).source(),
		Verify:     engine.VerifyFast,
	}
}

func TestServeRequeuesAroundRestartingNode(t *testing.T) {
	items := []Item{
		{Seq: 0, Node: 0, Objects: []tm.ObjectID{0}, Arrive: 0},
		{Seq: 1, Node: 1, Objects: []tm.ObjectID{1}, Arrive: 0}, // homed on the crashed node
		{Seq: 2, Node: 2, Objects: []tm.ObjectID{0}, Arrive: 1},
		{Seq: 3, Node: 3, Objects: []tm.ObjectID{1}, Arrive: 2},
	}
	cfg := faultSliceConfig(t, items)
	cfg.Faults = faults.MustFromFaults(faults.Fault{Kind: faults.NodeCrash, From: 1, To: 8, Node: 1})
	res, err := Serve(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requeued == 0 {
		t.Fatalf("transaction on a down node was never requeued: %+v", res)
	}
	if res.Shed != 0 {
		t.Fatalf("restarting node shed traffic: %+v", res)
	}
	if res.Committed != 4 || res.Admitted != 4 {
		t.Fatalf("lossless requeue expected 4 commits: %+v", res)
	}
	if res.RequeuePeak < 1 {
		t.Fatalf("requeue backlog never observed: %+v", res)
	}
}

func TestServeShedsAfterRequeueBudget(t *testing.T) {
	items := []Item{
		{Seq: 0, Node: 0, Objects: []tm.ObjectID{0}, Arrive: 0},
		{Seq: 1, Node: 1, Objects: []tm.ObjectID{1}, Arrive: 0}, // node 1 never restarts
		{Seq: 2, Node: 2, Objects: []tm.ObjectID{0}, Arrive: 1},
	}
	cfg := faultSliceConfig(t, items)
	cfg.Faults = faults.MustFromFaults(faults.Fault{Kind: faults.NodeCrash, From: 1, To: faults.Forever, Node: 1})
	cfg.MaxRequeue = 2
	res, err := Serve(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed != 1 {
		t.Fatalf("expected exactly the dead node's transaction shed: %+v", res)
	}
	if res.Requeued != 2 {
		t.Fatalf("expected MaxRequeue=2 requeues before shedding, got %d", res.Requeued)
	}
	if res.Committed != 2 || res.Admitted != 3 {
		t.Fatalf("surviving transactions must commit: %+v", res)
	}
	if res.Admitted != res.Committed+res.Shed {
		t.Fatalf("admission accounting leak: %+v", res)
	}

	// Everything on the dead node: the stream must still terminate, with
	// every transaction surfaced as shed rather than looping forever.
	all := []Item{
		{Seq: 0, Node: 1, Objects: []tm.ObjectID{0}, Arrive: 0},
		{Seq: 1, Node: 1, Objects: []tm.ObjectID{1}, Arrive: 1},
	}
	cfg = faultSliceConfig(t, all)
	cfg.Faults = faults.MustFromFaults(faults.Fault{Kind: faults.NodeCrash, From: 1, To: faults.Forever, Node: 1})
	cfg.MaxRequeue = 2
	res, err = Serve(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed != 2 || res.Committed != 0 || res.Windows != 0 {
		t.Fatalf("all-shed stream: %+v", res)
	}
}

// TestServeBreakerTripsAndRecovers drives a line topology through a
// 120-step partition plus a slow link, then a healed network: the
// rolling inflation trips the breaker (admission shifts Block→Reject,
// so rejects appear under a Block policy), and the healed tail closes
// it again. Digest pinned — the whole episode is deterministic.
func TestServeBreakerTripsAndRecovers(t *testing.T) {
	mk := func() Config {
		topo := topology.NewLine(8)
		g := topo.Graph()
		return Config{
			G: g, Metric: graph.FuncMetric(topo.Dist),
			NumObjects: 1, Home: []graph.NodeID{g.Nodes()[0]},
			Source:    NewGenerator(xrand.NewDerived(5, "stream", "gen"), g, tm.SingleObject(), 0.6, 160),
			Verify:    engine.VerifyFast,
			MaxWindow: 4, QueueCap: 6, Policy: Block,
			BreakerWindow: 2, InflationTrip: 1.5,
			PipelineDepth: 2,
			Faults: faults.MustFromFaults(
				faults.Fault{Kind: faults.LinkDown, From: 1, To: 120, U: 3, V: 4},
				faults.Fault{Kind: faults.LinkSlow, From: 1, To: 120, U: 1, V: 2, Factor: 6},
			),
		}
	}
	res, err := Serve(context.Background(), mk())
	if err != nil {
		t.Fatal(err)
	}
	if res.Digest != 0x703671723aea5cb6 {
		t.Errorf("breaker episode digest %016x, want pinned 703671723aea5cb6", res.Digest)
	}
	if res.BreakerTrips < 1 || res.BreakerRecoveries < 1 {
		t.Fatalf("breaker never cycled: %+v", res)
	}
	if res.Rejected == 0 {
		t.Fatalf("tripped breaker never shed admission load under Block policy: %+v", res)
	}
	if res.Blocked == 0 {
		t.Fatalf("closed-breaker periods never blocked: %+v", res)
	}
	if res.DegradedWindows == 0 || res.MeanInflation <= 1 {
		t.Fatalf("partition produced no degraded windows: %+v", res)
	}
	again, err := Serve(context.Background(), mk())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, again) {
		t.Fatalf("breaker episode not deterministic:\n%+v\nvs\n%+v", res, again)
	}
}

func TestServeConfigValidate(t *testing.T) {
	mkBase := func() Config { return serveConfig(t, 8, 4, 2, 20, 0.5, 47) }
	cases := []struct {
		name   string
		field  string
		mutate func(*Config)
	}{
		{"nil-graph", "G", func(c *Config) { c.G = nil }},
		{"nil-source", "Source", func(c *Config) { c.Source = nil }},
		{"no-objects", "NumObjects", func(c *Config) { c.NumObjects = 0 }},
		{"neg-objects", "NumObjects", func(c *Config) { c.NumObjects = -3 }},
		{"short-homes", "Home", func(c *Config) { c.Home = c.Home[:1] }},
		{"home-range", "Home", func(c *Config) { c.Home[0] = 99 }},
		{"neg-window", "MaxWindow", func(c *Config) { c.MaxWindow = -1 }},
		{"neg-queue", "QueueCap", func(c *Config) { c.QueueCap = -2 }},
		{"neg-depth", "PipelineDepth", func(c *Config) { c.PipelineDepth = -1 }},
		{"bad-policy", "Policy", func(c *Config) { c.Policy = Policy(7) }},
		{"neg-deadline", "Deadline", func(c *Config) { c.Deadline = -time.Second }},
		{"bad-cancel", "OnCancel", func(c *Config) { c.OnCancel = CancelPolicy(9) }},
		{"neg-requeue", "MaxRequeue", func(c *Config) { c.MaxRequeue = -1 }},
		{"neg-breaker", "BreakerWindow", func(c *Config) { c.BreakerWindow = -1 }},
		{"neg-trip", "InflationTrip", func(c *Config) { c.InflationTrip = -0.5 }},
		{"nan-trip", "InflationTrip", func(c *Config) { c.InflationTrip = math.NaN() }},
	}
	for _, tc := range cases {
		cfg := mkBase()
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the config", tc.name)
		} else {
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Errorf("%s: error %v is not a *ConfigError", tc.name, err)
			} else if ce.Field != tc.field {
				t.Errorf("%s: error names field %q, want %q", tc.name, ce.Field, tc.field)
			}
			// Serve must surface the identical typed error.
			if _, serr := Serve(context.Background(), cfg); serr == nil || !errors.As(serr, &ce) {
				t.Errorf("%s: Serve did not return the typed config error (got %v)", tc.name, serr)
			}
		}
	}
	good := mkBase()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestNewChaosConfigErrors(t *testing.T) {
	// A bad chaos rate or horizon returns a *ConfigError on Faults. NaN
	// fails every comparison, so it once built a plan that injected
	// nothing yet sent every window down the faulty replay path.
	g := topology.NewClique(4).Graph()
	for _, cc := range []ChaosConfig{
		{Rate: -0.1, Horizon: 100},
		{Rate: 1.5, Horizon: 100},
		{Rate: math.NaN(), Horizon: 100},
		{Rate: 0.1, Horizon: 0},
	} {
		inj, err := NewChaos(cc, g)
		var ce *ConfigError
		if inj != nil || !errors.As(err, &ce) || ce.Field != "Faults" {
			t.Errorf("%+v: got (%v, %v), want a *ConfigError on Faults", cc, inj, err)
		}
	}
	if inj, err := NewChaos(ChaosConfig{Rate: 0}, g); inj != nil || err != nil {
		t.Errorf("zero rate: got (%v, %v), want (nil, nil)", inj, err)
	}
}

func TestMakeGeneratorErrors(t *testing.T) {
	topo := topology.NewClique(4)
	g := topo.Graph()
	w := tm.UniformK(2, 1)
	cases := []struct {
		name string
		mk   func() (*Generator, error)
	}{
		{"nil-rng", func() (*Generator, error) { return MakeGenerator(nil, g, w, 0.5, 5) }},
		{"nil-graph", func() (*Generator, error) { return MakeGenerator(xrand.New(1), nil, w, 0.5, 5) }},
		{"zero-rate", func() (*Generator, error) { return MakeGenerator(xrand.New(1), g, w, 0, 5) }},
		{"neg-rate", func() (*Generator, error) { return MakeGenerator(xrand.New(1), g, w, -0.5, 5) }},
		{"zero-limit", func() (*Generator, error) { return MakeGenerator(xrand.New(1), g, w, 0.5, 0) }},
		{"no-pick", func() (*Generator, error) { return MakeGenerator(xrand.New(1), g, tm.Workload{W: 2, K: 1}, 0.5, 5) }},
	}
	for _, tc := range cases {
		gen, err := tc.mk()
		if err == nil || gen != nil {
			t.Errorf("%s: accepted (gen=%v err=%v)", tc.name, gen, err)
			continue
		}
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Errorf("%s: error %v is not a *ConfigError", tc.name, err)
		}
	}
	gen, err := MakeGenerator(xrand.New(1), g, w, 0.5, 5)
	if err != nil || gen == nil {
		t.Fatalf("valid generator rejected: %v", err)
	}
}

// cancellingSource cancels a context after a fixed number of pulls —
// a deterministic mid-stream shutdown trigger.
type cancellingSource struct {
	inner  Source
	pulls  int
	after  int
	cancel context.CancelFunc
}

func (c *cancellingSource) Next() (Item, bool) {
	c.pulls++
	if c.pulls == c.after {
		c.cancel()
	}
	return c.inner.Next()
}

func TestServeCancelDrain(t *testing.T) {
	run := func() *Result {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cfg := serveConfig(t, 12, 6, 2, 200, 0.5, 49)
		cfg.Source = &cancellingSource{inner: cfg.Source, after: 60, cancel: cancel}
		cfg.OnCancel = CancelDrain
		res, err := Serve(ctx, cfg)
		if err != nil {
			t.Fatalf("graceful drain returned error: %v", err)
		}
		return res
	}
	res := run()
	if !res.Cancelled {
		t.Fatalf("drained run not marked cancelled: %+v", res)
	}
	if res.Admitted == 0 || res.Admitted >= 200 {
		t.Fatalf("cancellation should truncate the stream: %+v", res)
	}
	if res.Committed != res.Admitted {
		t.Fatalf("drain dropped admitted work: committed %d of %d", res.Committed, res.Admitted)
	}
	if res.Windows == 0 || res.Clock == 0 || res.Digest == 0 {
		t.Fatalf("drained summary incomplete: %+v", res)
	}
	if again := run(); !reflect.DeepEqual(res, again) {
		t.Fatalf("graceful drain not deterministic:\n%+v\nvs\n%+v", res, again)
	}
}

func TestServeCancelAbortMidStream(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := serveConfig(t, 12, 6, 2, 200, 0.5, 49)
	cfg.Source = &cancellingSource{inner: cfg.Source, after: 60, cancel: cancel}
	// Default OnCancel: the run aborts with the context error.
	if _, err := Serve(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("abort mode returned %v, want context.Canceled", err)
	}
}
