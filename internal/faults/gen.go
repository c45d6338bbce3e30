package faults

import (
	"fmt"
	"math"
	"math/rand"

	"dtmsched/internal/graph"
	"dtmsched/internal/xrand"
)

// Config parameterizes rate-based plan generation (New). All rates are
// probabilities in [0, 1]; every fault site (link, node) draws from its own
// seed-derived stream, so the generated plan is identical regardless of
// graph construction order or parallelism.
type Config struct {
	// Seed roots all randomness. The same (Seed, Config, graph) always
	// yields the same plan.
	Seed int64
	// Horizon is the step range [1, Horizon] over which interval faults
	// start; pick the schedule's fault-free makespan so faults land while
	// the batch is active. Required ≥ 1 when any interval rate is set.
	Horizon int64
	// LinkDownRate is the probability that a link suffers one outage.
	LinkDownRate float64
	// LinkSlowRate is the probability that a link suffers one slowdown.
	LinkSlowRate float64
	// SlowFactor is the delay multiplier of slowdowns (default 4).
	SlowFactor int64
	// CrashRate is the probability that a node suffers one crash window.
	CrashRate float64
	// DropRate is the probability that any single object dispatch is lost
	// in transit (resolved per dispatch by seeded hashing).
	DropRate float64
	// MeanOutage is the mean fault duration in steps (default
	// max(Horizon/8, 1)); durations are uniform in [1, 2·MeanOutage].
	MeanOutage int64
	// Recur, when > 0, splits the horizon into chunks of Recur steps and
	// redraws every fault site once per chunk instead of once per run, so
	// fault pressure persists over long horizons (the chaos mode of the
	// streaming service, which keys chunks to its serving windows). Each
	// (site, chunk) pair draws from its own derived stream, so plans stay
	// identical across graph construction order and parallelism, and
	// Recur = 0 reproduces the historical single-draw plans bit-for-bit.
	Recur int64
}

// rated reports whether any interval fault class has a nonzero rate.
func (c Config) rated() bool {
	return c.LinkDownRate > 0 || c.LinkSlowRate > 0 || c.CrashRate > 0
}

// RateError is a fault rate outside [0, 1]. NaN counts as outside.
type RateError struct {
	Name string
	Rate float64
}

// Error implements error.
func (e *RateError) Error() string {
	return fmt.Sprintf("faults: %s %v outside [0,1]", e.Name, e.Rate)
}

// CheckRate returns a *RateError unless 0 ≤ r ≤ 1. Every fault-rate entry
// point guards through it: NaN fails every comparison, so it passes an
// "r < 0 || r > 1" test and would otherwise be accepted.
func CheckRate(name string, r float64) error {
	if r >= 0 && r <= 1 {
		return nil
	}
	return &RateError{name, r}
}

// New generates a plan over g's links and nodes from per-site rates. The
// draw for each link and node comes from a stream derived from (Seed, kind,
// site), so two plans with the same seed and config agree fault-by-fault
// even if the graphs were built in different edge orders.
func New(cfg Config, g *graph.Graph) (*Plan, error) {
	if cfg.rated() && cfg.Horizon < 1 {
		return nil, fmt.Errorf("faults: config has interval fault rates but horizon %d < 1", cfg.Horizon)
	}
	for _, r := range []struct {
		name string
		v    float64
	}{{"LinkDownRate", cfg.LinkDownRate}, {"LinkSlowRate", cfg.LinkSlowRate}, {"CrashRate", cfg.CrashRate}, {"DropRate", cfg.DropRate}} {
		if err := CheckRate(r.name, r.v); err != nil {
			return nil, err
		}
	}
	factor := cfg.SlowFactor
	if factor == 0 {
		factor = 4
	}
	if factor < 2 {
		return nil, fmt.Errorf("faults: slow factor %d < 2", factor)
	}
	mean := cfg.MeanOutage
	if mean == 0 {
		mean = cfg.Horizon / 8
		if mean < 1 {
			mean = 1
		}
	}
	if mean < 1 {
		return nil, fmt.Errorf("faults: mean outage %d < 1", mean)
	}
	if cfg.Recur < 0 {
		return nil, fmt.Errorf("faults: recur chunk %d < 0", cfg.Recur)
	}

	// draw rolls one fault site once per chunk of the horizon, appending
	// f over [from, to) on a hit inside that chunk. Recur = 0 is a single
	// chunk spanning the horizon, seeded by the site's label path alone:
	// the historical single-draw plan. Every (site, chunk) seed derives
	// from (Seed, "faults", kind, a, b[, "chunk", c]) and feeds one reused
	// jump-ahead source, so the draws equal a freshly seeded math/rand
	// stream's at no per-chunk allocation.
	chunk := cfg.Recur
	if chunk == 0 {
		chunk = cfg.Horizon
	}
	root := xrand.NewKey(cfg.Seed).Label("faults")
	rng := rand.New(xrand.NewJumpSource(0))
	fs := make([]Fault, 0, expectedFaults(cfg, chunk, g))
	draw := func(r float64, kind string, a, b int64, f Fault) {
		if r <= 0 {
			return
		}
		site := root.Label(kind).Int(a).Int(b)
		for start := int64(0); start < cfg.Horizon; start += chunk {
			key := site
			if cfg.Recur > 0 {
				key = site.Label("chunk").Int(start / chunk)
			}
			rng.Seed(key.Seed())
			if rng.Float64() >= r {
				continue
			}
			f.From = start + 1 + rng.Int63n(min(chunk, cfg.Horizon-start))
			f.To = f.From + 1 + rng.Int63n(2*mean)
			fs = append(fs, f)
		}
	}
	if cfg.rated() {
		n := g.NumNodes()
		seen := map[linkKey]struct{}{}
		for u := 0; u < n; u++ {
			for _, e := range g.Neighbors(graph.NodeID(u)) {
				if e.To <= graph.NodeID(u) {
					continue
				}
				k := mkLinkKey(graph.NodeID(u), e.To)
				if _, dup := seen[k]; dup {
					continue // parallel links fault as one site
				}
				seen[k] = struct{}{}
				draw(cfg.LinkDownRate, "link-down", int64(k.u), int64(k.v), Fault{Kind: LinkDown, U: k.u, V: k.v})
				draw(cfg.LinkSlowRate, "link-slow", int64(k.u), int64(k.v), Fault{Kind: LinkSlow, U: k.u, V: k.v, Factor: factor})
			}
		}
		for v := 0; v < n; v++ {
			draw(cfg.CrashRate, "crash", int64(v), 0, Fault{Kind: NodeCrash, Node: graph.NodeID(v)})
		}
	}
	p, err := fromOwned(fs)
	if err != nil {
		return nil, err
	}
	p.dropRate = cfg.DropRate
	p.dropSeed = xrand.Derive(cfg.Seed, "faults", "drop")
	return p, nil
}

// expectedFaults sizes New's fault list: the expected number of hits over
// every (site, chunk) draw plus four standard deviations, so the list
// almost never grows, capped at maxFaultHint so an absurd config does not
// reserve memory its draws would never fill.
func expectedFaults(cfg Config, chunk int64, g *graph.Graph) int {
	if !cfg.rated() {
		return 0
	}
	chunks := float64((cfg.Horizon + chunk - 1) / chunk)
	mean := chunks * (float64(g.NumEdges())*(cfg.LinkDownRate+cfg.LinkSlowRate) + float64(g.NumNodes())*cfg.CrashRate)
	return int(min(mean+4*math.Sqrt(mean)+1, maxFaultHint))
}

// maxFaultHint caps expectedFaults.
const maxFaultHint = 1 << 20

// MustNew is New for tests and examples that treat a bad config as a
// programming error.
func MustNew(cfg Config, g *graph.Graph) *Plan {
	p, err := New(cfg, g)
	if err != nil {
		panic(err)
	}
	return p
}
