package faults

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"dtmsched/internal/graph"
	"dtmsched/internal/topology"
	"dtmsched/internal/xrand"
)

func TestRecurZeroMatchesSingleDraw(t *testing.T) {
	// Recur is purely additive: a zero chunk must reproduce the
	// historical single-draw plan bit-for-bit (the zero-fault and
	// batch-sweep baselines depend on it).
	g := topology.NewSquareGrid(6).Graph()
	cfg := Config{Seed: 11, Horizon: 300, LinkDownRate: 0.2, LinkSlowRate: 0.15, CrashRate: 0.1, DropRate: 0.05}
	base := MustNew(cfg, g)
	cfg.Recur = 0
	again := MustNew(cfg, g)
	if !reflect.DeepEqual(base.Faults(), again.Faults()) {
		t.Fatal("Recur=0 changed the generated plan")
	}
}

func TestRecurRedrawsPerChunk(t *testing.T) {
	g := topology.NewClique(8).Graph()
	cfg := Config{Seed: 3, Horizon: 800, Recur: 100, MeanOutage: 20,
		LinkDownRate: 0.3, CrashRate: 0.2}
	a := MustNew(cfg, g)
	b := MustNew(cfg, g)
	if !reflect.DeepEqual(a.Faults(), b.Faults()) {
		t.Fatal("recurring plans are not seed-deterministic")
	}
	// Every generated interval starts inside its own chunk.
	for _, f := range a.Faults() {
		if f.From < 1 || f.From > cfg.Horizon {
			t.Fatalf("fault start %d outside (0,%d]", f.From, cfg.Horizon)
		}
	}
	// A recurring plan over many chunks should carry strictly more faults
	// than the single-draw plan at the same rates: each site gets eight
	// chances instead of one.
	single := MustNew(Config{Seed: 3, Horizon: 800, MeanOutage: 20,
		LinkDownRate: 0.3, CrashRate: 0.2}, g)
	if a.Count() <= single.Count() {
		t.Fatalf("recurring plan has %d faults, single-draw %d — expected more pressure",
			a.Count(), single.Count())
	}
	// Late chunks actually fire: chaos pressure must not decay over the
	// horizon (the whole point of recurring draws).
	var late int
	for _, f := range a.Faults() {
		if f.From > cfg.Horizon/2 {
			late++
		}
	}
	if late == 0 {
		t.Fatal("no faults in the second half of the horizon")
	}
}

func TestRecurValidation(t *testing.T) {
	g := topology.NewClique(4).Graph()
	if _, err := New(Config{Seed: 1, Horizon: 100, LinkDownRate: 0.1, Recur: -5}, g); err == nil {
		t.Fatal("negative Recur accepted")
	}
	// Rates outside [0,1] return a *RateError naming the field. NaN fails
	// every comparison, so it must be rejected explicitly.
	nan := math.NaN()
	for _, tc := range []struct {
		field string
		cfg   Config
	}{
		{"LinkDownRate", Config{LinkDownRate: nan}},
		{"LinkSlowRate", Config{LinkSlowRate: -0.1}},
		{"CrashRate", Config{CrashRate: nan}},
		{"DropRate", Config{DropRate: nan}},
		{"DropRate", Config{DropRate: 1.5}},
	} {
		tc.cfg.Seed, tc.cfg.Horizon = 1, 100
		_, err := New(tc.cfg, g)
		var re *RateError
		if !errors.As(err, &re) || re.Name != tc.field {
			t.Errorf("%+v: error %v, want a *RateError on %s", tc.cfg, err, tc.field)
		}
	}
}

// refNew is the plan generator as it was before the jump-ahead source: a
// fresh math/rand stream per (site, chunk), seeded from fmt.Sprint
// labels. It is the reference New must match fault for fault.
func refNew(cfg Config, g *graph.Graph) []Fault {
	factor := cfg.SlowFactor
	if factor == 0 {
		factor = 4
	}
	mean := cfg.MeanOutage
	if mean == 0 {
		mean = max(cfg.Horizon/8, 1)
	}
	var fs []Fault
	intervals := func(r float64, kind string, a, b int64, emit func(from, to int64)) {
		if r <= 0 {
			return
		}
		if cfg.Recur <= 0 {
			rng := xrand.NewDerived(cfg.Seed, "faults", kind, fmt.Sprint(a), fmt.Sprint(b))
			if rng.Float64() >= r {
				return
			}
			from := 1 + rng.Int63n(cfg.Horizon)
			dur := 1 + rng.Int63n(2*mean)
			emit(from, from+dur)
			return
		}
		for start := int64(0); start < cfg.Horizon; start += cfg.Recur {
			width := min(cfg.Recur, cfg.Horizon-start)
			rng := xrand.NewDerived(cfg.Seed, "faults", kind,
				fmt.Sprint(a), fmt.Sprint(b), "chunk", fmt.Sprint(start/cfg.Recur))
			if rng.Float64() >= r {
				continue
			}
			from := start + 1 + rng.Int63n(width)
			dur := 1 + rng.Int63n(2*mean)
			emit(from, from+dur)
		}
	}
	n := g.NumNodes()
	seen := map[linkKey]struct{}{}
	for u := 0; u < n; u++ {
		for _, e := range g.Neighbors(graph.NodeID(u)) {
			k := mkLinkKey(graph.NodeID(u), e.To)
			if _, dup := seen[k]; dup || e.To <= graph.NodeID(u) {
				continue
			}
			seen[k] = struct{}{}
			intervals(cfg.LinkDownRate, "link-down", int64(k.u), int64(k.v), func(from, to int64) {
				fs = append(fs, Fault{Kind: LinkDown, From: from, To: to, U: k.u, V: k.v})
			})
			intervals(cfg.LinkSlowRate, "link-slow", int64(k.u), int64(k.v), func(from, to int64) {
				fs = append(fs, Fault{Kind: LinkSlow, From: from, To: to, U: k.u, V: k.v, Factor: factor})
			})
		}
	}
	for v := 0; v < n; v++ {
		intervals(cfg.CrashRate, "crash", int64(v), 0, func(from, to int64) {
			fs = append(fs, Fault{Kind: NodeCrash, From: from, To: to, Node: graph.NodeID(v)})
		})
	}
	return fs
}

func TestNewMatchesReferenceGenerator(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"grid8":      topology.NewSquareGrid(8).Graph(),
		"fogcloud":   topology.NewFogCloud([]int{3, 4}, []int64{4, 1}).Graph(),
		"clique12":   topology.NewClique(12).Graph(),
		"grid16-big": topology.NewSquareGrid(16).Graph(),
	}
	for name, g := range graphs {
		for _, cfg := range []Config{
			{Seed: 1, Horizon: 400, LinkDownRate: 0.3, LinkSlowRate: 0.2, CrashRate: 0.1},
			{Seed: -7, Horizon: 1000, Recur: 64, MeanOutage: 12, LinkDownRate: 0.2, LinkSlowRate: 0.2, CrashRate: 0.1, SlowFactor: 3},
			{Seed: xrand.DefaultSeed, Horizon: 97, Recur: 10, LinkDownRate: 1, CrashRate: 0.5},
			// Horizons past 2³¹ send Int63n down its 63-bit path.
			{Seed: 99, Horizon: 1 << 40, Recur: 1<<37 + 3, MeanOutage: 1<<35 + 1, LinkSlowRate: 0.4, CrashRate: 0.4},
		} {
			got := MustNew(cfg, g).Faults()
			want := refNew(cfg, g)
			if len(want) == 0 {
				t.Fatalf("%s %+v: reference plan is empty, so the check is vacuous", name, cfg)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %+v: New's %d faults differ from the reference's %d", name, cfg, len(got), len(want))
			}
		}
	}
}

func TestNewPlanAllocsIndependentOfChunks(t *testing.T) {
	// At near-zero rates no fault fires, so every allocation is per plan
	// or per site. A per-chunk reseed that allocated would grow the count
	// 196-fold between these two configs.
	g := topology.NewSquareGrid(16).Graph()
	const horizon = 196 * 256
	allocs := func(recur int64) float64 {
		cfg := Config{Seed: 5, Horizon: horizon, Recur: recur, MeanOutage: 128,
			LinkDownRate: 1e-12, LinkSlowRate: 1e-12, CrashRate: 1e-12, DropRate: 1e-12}
		if n := MustNew(cfg, g).Count(); n != 0 {
			t.Fatalf("recur %d: %d faults at near-zero rates", recur, n)
		}
		return testing.AllocsPerRun(3, func() { MustNew(cfg, g) })
	}
	if one, many := allocs(horizon), allocs(horizon/196); one != many {
		t.Fatalf("plan allocations grow with chunks: %v at 1 chunk, %v at 196", one, many)
	}
}

// BenchmarkPlanGrid16 builds the plan of a long chaos stream on grid16:
// horizon 50,000, 256-step chunks, rate 0.1 (link outages and slowdowns
// at the rate, crashes at half of it, drops at a quarter, 128-step mean
// outages).
func BenchmarkPlanGrid16(b *testing.B) {
	g := topology.NewSquareGrid(16).Graph()
	const rate, chunk = 0.1, 256
	cfg := Config{Seed: 1, Horizon: 50_000, Recur: chunk, MeanOutage: chunk / 2,
		LinkDownRate: rate, LinkSlowRate: rate, CrashRate: rate / 2, DropRate: rate / 4}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MustNew(cfg, g)
	}
}
