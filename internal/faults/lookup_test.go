package faults

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dtmsched/internal/graph"
	"dtmsched/internal/topology"
)

// refLinkFactor evaluates LinkFactor from the raw fault list: the
// mulFactor product of every slowdown of {u, v} covering step, or 0 when
// an outage covers it.
func refLinkFactor(fs []Fault, u, v graph.NodeID, step int64) int64 {
	factor := int64(1)
	down := false
	for _, f := range fs {
		if (f.Kind != LinkSlow && f.Kind != LinkDown) || mkLinkKey(f.U, f.V) != mkLinkKey(u, v) ||
			step < f.From || step >= f.To {
			continue
		}
		if f.Kind == LinkDown {
			down = true
			continue
		}
		factor = mulFactor(factor, f.Factor)
	}
	if down {
		return 0
	}
	return factor
}

// refNodeDownUntil evaluates NodeDownUntil from the raw fault list: v is
// down when a crash of v covers step, and it restarts at the first step
// no crash of v covers, found by following ends through every crash that
// overlaps or touches the current one.
func refNodeDownUntil(fs []Fault, v graph.NodeID, step int64) (int64, bool) {
	covers := func(t int64) (int64, bool) {
		for _, f := range fs {
			if f.Kind == NodeCrash && f.Node == v && f.From <= t && t < f.To {
				return f.To, true
			}
		}
		return 0, false
	}
	restart, down := covers(step)
	if !down {
		return 0, false
	}
	for restart != Forever {
		next, still := covers(restart)
		if !still {
			break
		}
		restart = next
	}
	return restart, true
}

// refBoundaries lists every link fault's start and finite end and every
// step at which a node's crash state flips, sorted and deduplicated.
func refBoundaries(fs []Fault) []int64 {
	var out []int64
	for _, f := range fs {
		switch f.Kind {
		case LinkSlow, LinkDown:
			out = append(out, f.From)
			if f.To != Forever {
				out = append(out, f.To)
			}
		case NodeCrash:
			for _, t := range []int64{f.From, f.To} {
				if t == Forever {
					continue
				}
				_, before := refNodeDownUntil(fs, f.Node, t-1)
				_, at := refNodeDownUntil(fs, f.Node, t)
				if before != at {
					out = append(out, t)
				}
			}
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// randomScript draws interval faults on nodes [0, n) over steps [0, span):
// short intervals that often overlap or touch, some that never end, and
// slowdown factors large enough that three overlapping ones saturate.
func randomScript(r *rand.Rand, n int, span int64, count int) []Fault {
	fs := make([]Fault, 0, count+1)
	for len(fs) < count {
		from := r.Int63n(span)
		to := from + 1 + r.Int63n(span/4+1)
		if r.Intn(12) == 0 {
			to = Forever
		}
		u, v := graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))
		switch r.Intn(4) {
		case 0:
			fs = append(fs, Fault{Kind: NodeCrash, From: from, To: to, Node: u})
		case 1:
			if u != v {
				fs = append(fs, Fault{Kind: LinkDown, From: from, To: to, U: u, V: v})
			}
		default:
			factor := int64(2 + r.Intn(3))
			if r.Intn(3) == 0 {
				factor = 1<<11 + r.Int63n(1<<11)
			}
			if u != v {
				fs = append(fs, Fault{Kind: LinkSlow, From: from, To: to, U: u, V: v, Factor: factor})
			}
		}
	}
	if r.Intn(2) == 0 { // touching crashes: one ends where the next starts
		end := r.Int63n(span) + 1
		fs = append(fs, Fault{Kind: NodeCrash, From: 0, To: end, Node: 0},
			Fault{Kind: NodeCrash, From: end, To: end + 3, Node: 0})
	}
	fs = append(fs, Fault{Kind: MoveDrop, Object: 1, Seq: 2})
	return fs
}

// checkLookups compares p's answers with the raw-fault references for
// every node ID from -2 to 2 past the largest one the plan names and every
// link between them, at steps around every boundary, below 0 and past the
// last boundary.
func checkLookups(t *testing.T, name string, p *Plan) {
	t.Helper()
	fs := p.Faults()
	bounds := p.Boundaries()
	if want := refBoundaries(fs); !reflect.DeepEqual(bounds, want) && len(bounds)+len(want) > 0 {
		t.Fatalf("%s: boundaries %v, reference %v", name, bounds, want)
	}
	maxID := graph.NodeID(-1)
	for _, f := range fs {
		if f.Kind != MoveDrop {
			maxID = max(maxID, f.Node, f.U, f.V)
		}
	}
	steps := []int64{math.MinInt64, -1 << 20, -2, -1, 0, 1, Forever - 1, Forever}
	for _, b := range bounds {
		steps = append(steps, b-1, b, b+1)
	}
	if n := len(bounds); n > 0 {
		last := bounds[n-1]
		steps = append(steps, last+2, last+1000, 2*last+1<<20)
	}
	ids := make([]graph.NodeID, 0, maxID+5)
	for v := graph.NodeID(-2); v <= maxID+2; v++ {
		ids = append(ids, v)
	}
	// Each site's reference reads only the faults that name it, found by
	// a scan of the raw list.
	for _, v := range ids {
		var crashes []Fault
		for _, f := range fs {
			if f.Kind == NodeCrash && f.Node == v {
				crashes = append(crashes, f)
			}
		}
		for _, step := range steps {
			gr, gd := p.NodeDownUntil(v, step)
			wr, wd := refNodeDownUntil(crashes, v, step)
			if gr != wr || gd != wd {
				t.Fatalf("%s: NodeDownUntil(%d, %d) = (%d, %v), reference (%d, %v)", name, v, step, gr, gd, wr, wd)
			}
		}
		for _, u := range ids {
			var link []Fault
			for _, f := range fs {
				if (f.Kind == LinkSlow || f.Kind == LinkDown) && mkLinkKey(f.U, f.V) == mkLinkKey(u, v) {
					link = append(link, f)
				}
			}
			for _, step := range steps {
				if got, want := p.LinkFactor(u, v, step), refLinkFactor(link, u, v, step); got != want {
					t.Fatalf("%s: LinkFactor(%d, %d, %d) = %d, reference %d", name, u, v, step, got, want)
				}
			}
		}
	}
}

// TestPlanLookupsMatchReference checks the flat-array lookups and their
// health filter against references that evaluate the raw fault list, on
// random scripted plans (Forever spans, saturating slowdowns, overlapping
// and touching crashes), on generated plans with and without Recur, and
// on plans with no interval fault (the zero Plan included).
func TestPlanLookupsMatchReference(t *testing.T) {
	for _, p := range []*Plan{{}, MustFromFaults(), MustFromFaults(Fault{Kind: MoveDrop, Object: 0, Seq: 0})} {
		checkLookups(t, "no intervals", p)
	}
	r := rand.New(rand.NewSource(28))
	for trial := 0; trial < 60; trial++ {
		n := 2 + r.Intn(6)
		span := int64(8) << r.Intn(8)
		fs := randomScript(r, n, span, 1+r.Intn(40))
		if trial%4 == 0 { // sparse steps: wide filter buckets, few rows
			for i := range fs {
				fs[i].From <<= 30
				if fs[i].To != Forever {
					fs[i].To <<= 30
				}
			}
		}
		checkLookups(t, "scripted", MustFromFaults(fs...))
	}
	g := topology.NewSquareGrid(4).Graph()
	for _, cfg := range []Config{
		{Seed: 1, Horizon: 300, LinkDownRate: 0.3, LinkSlowRate: 0.3, CrashRate: 0.2},
		{Seed: 2, Horizon: 2000, Recur: 64, MeanOutage: 32, LinkDownRate: 0.2, LinkSlowRate: 0.3, CrashRate: 0.15, DropRate: 0.1},
		{Seed: 3, Horizon: 5000, Recur: 100, MeanOutage: 80, LinkDownRate: 0.4, LinkSlowRate: 0.4, CrashRate: 0.3, SlowFactor: 1 << 12},
	} {
		p := MustNew(cfg, g)
		if p.Count() == 0 {
			t.Fatalf("%+v: empty plan, so the check is vacuous", cfg)
		}
		checkLookups(t, "generated", p)
	}
}
