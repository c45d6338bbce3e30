package faults

import (
	"math"
	"reflect"
	"testing"

	"dtmsched/internal/graph"
	"dtmsched/internal/topology"
)

func TestPlanSeedDeterminism(t *testing.T) {
	// The same (seed, config, graph) must yield an identical plan — same
	// fault list, same boundaries, same probabilistic drop answers — no
	// matter how often it is generated.
	g := topology.NewSquareGrid(8).Graph()
	cfg := Config{Seed: 42, Horizon: 200, LinkDownRate: 0.1, LinkSlowRate: 0.1, CrashRate: 0.05, DropRate: 0.1}
	a := MustNew(cfg, g)
	b := MustNew(cfg, g)
	if !reflect.DeepEqual(a.Faults(), b.Faults()) {
		t.Fatalf("same seed generated different fault lists:\n%v\nvs\n%v", a.Faults(), b.Faults())
	}
	if !reflect.DeepEqual(a.Boundaries(), b.Boundaries()) {
		t.Fatalf("same seed generated different boundaries: %v vs %v", a.Boundaries(), b.Boundaries())
	}
	for o := 0; o < 16; o++ {
		for seq := 0; seq < 8; seq++ {
			if a.DropMove(0, seq, 0) != b.DropMove(0, seq, 0) {
				t.Fatalf("drop decision for obj %d seq %d differs between identical plans", o, seq)
			}
		}
	}
	if MustNew(Config{Seed: 43, Horizon: 200, LinkDownRate: 0.1}, g).Count() == a.Count() &&
		reflect.DeepEqual(MustNew(Config{Seed: 43, Horizon: 200, LinkDownRate: 0.1, LinkSlowRate: 0.1, CrashRate: 0.05}, g).Faults(), a.Faults()) {
		t.Fatal("different seeds generated identical fault lists")
	}
}

func TestPlanGenerationIsOrderIndependent(t *testing.T) {
	// Two graphs with the same links added in different orders must fault
	// identically: draws are derived per site, not per iteration.
	a := graph.New(4)
	a.AddUnitEdge(0, 1)
	a.AddUnitEdge(1, 2)
	a.AddUnitEdge(2, 3)
	b := graph.New(4)
	b.AddUnitEdge(2, 3)
	b.AddUnitEdge(0, 1)
	b.AddUnitEdge(1, 2)
	cfg := Config{Seed: 7, Horizon: 100, LinkDownRate: 0.5, LinkSlowRate: 0.5, CrashRate: 0.5}
	pa, pb := MustNew(cfg, a), MustNew(cfg, b)
	// Compare per-site answers (fault list order may differ with edge order).
	for u := graph.NodeID(0); u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			for step := int64(0); step < 150; step += 7 {
				if pa.LinkFactor(u, v, step) != pb.LinkFactor(u, v, step) {
					t.Fatalf("link {%d,%d} factor differs at step %d", u, v, step)
				}
			}
		}
		for step := int64(0); step < 150; step += 7 {
			ra, da := pa.NodeDownUntil(u, step)
			rb, db := pb.NodeDownUntil(u, step)
			if da != db || ra != rb {
				t.Fatalf("node %d crash state differs at step %d", u, step)
			}
		}
	}
}

func TestScriptedPlanLookups(t *testing.T) {
	p := MustFromFaults(
		Fault{Kind: LinkDown, From: 10, To: 20, U: 1, V: 2},
		Fault{Kind: LinkSlow, From: 15, To: 30, U: 2, V: 1, Factor: 3},
		Fault{Kind: NodeCrash, From: 5, To: 8, Node: 4},
		Fault{Kind: NodeCrash, From: 7, To: 12, Node: 4}, // overlaps: merges to [5,12)
		Fault{Kind: MoveDrop, Object: 3, Seq: 1},
	)
	if p.Empty() {
		t.Fatal("scripted plan reports empty")
	}
	if got := p.Count(); got != 5 {
		t.Fatalf("Count = %d, want 5", got)
	}
	// Link {1,2}: down dominates in [15,20) even though slowed too.
	cases := []struct {
		step int64
		want int64
	}{{9, 1}, {10, 0}, {17, 0}, {20, 3}, {29, 3}, {30, 1}}
	for _, c := range cases {
		if got := p.LinkFactor(2, 1, c.step); got != c.want {
			t.Errorf("LinkFactor(step %d) = %d, want %d", c.step, got, c.want)
		}
	}
	if r, down := p.NodeDownUntil(4, 6); !down || r != 12 {
		t.Errorf("NodeDownUntil(4, 6) = (%d, %v), want (12, true) after merge", r, down)
	}
	if _, down := p.NodeDownUntil(4, 12); down {
		t.Error("node 4 still down at its restart step")
	}
	if !p.DropMove(3, 1, 0) || p.DropMove(3, 0, 0) || p.DropMove(2, 1, 0) {
		t.Error("scripted drop fires on wrong (object, seq)")
	}
	wantBounds := []int64{5, 10, 12, 15, 20, 30}
	if !reflect.DeepEqual(p.Boundaries(), wantBounds) {
		t.Errorf("Boundaries = %v, want %v", p.Boundaries(), wantBounds)
	}
}

func TestFromFaultsValidation(t *testing.T) {
	bad := []Fault{
		{Kind: LinkDown, From: 10, To: 10, U: 0, V: 1},
		{Kind: LinkDown, From: 5, To: 10, U: 1, V: 1},
		{Kind: LinkSlow, From: 1, To: 2, U: 0, V: 1, Factor: 1},
		{Kind: MoveDrop, Object: 0, Seq: -1},
		{Kind: NodeCrash, From: 1, To: 2, Node: -1},
		{Kind: LinkDown, From: 1, To: 2, U: -1, V: 1},
		{Kind: LinkSlow, From: 1, To: 2, U: 3, V: -2, Factor: 2},
		{Kind: NodeCrash, From: 1, To: 2, Node: math.MaxInt},
		{Kind: NodeCrash, From: 1, To: 2, Node: math.MaxInt32},
		{Kind: LinkDown, From: 1, To: 2, U: 0, V: math.MaxInt},
		{Kind: LinkSlow, From: 1, To: 2, U: math.MaxInt32, V: 1, Factor: 2},
		{Kind: Kind(99)},
	}
	for i, f := range bad {
		if _, err := FromFaults(f); err == nil {
			t.Errorf("case %d: FromFaults accepted invalid fault %+v", i, f)
		}
	}
}

// TestPlanOverlays pins how overlapping faults combine inside one plan:
// slowdowns of one link multiply, an outage dominates them, and
// overlapping crashes of one node merge into a single span that restarts
// at the later end.
func TestPlanOverlays(t *testing.T) {
	p := MustFromFaults(
		Fault{Kind: LinkSlow, From: 0, To: 100, U: 0, V: 1, Factor: 2},
		Fault{Kind: LinkSlow, From: 50, To: 100, U: 1, V: 0, Factor: 3},
		Fault{Kind: LinkDown, From: 70, To: 80, U: 0, V: 1},
		Fault{Kind: NodeCrash, From: 10, To: 20, Node: 5},
		Fault{Kind: NodeCrash, From: 15, To: 25, Node: 5},
	)
	if p.Empty() {
		t.Fatal("plan reports empty")
	}
	if got := p.Count(); got != 5 {
		t.Fatalf("Count = %d, want 5", got)
	}
	if got := p.LinkFactor(0, 1, 60); got != 6 {
		t.Errorf("factors should multiply: got %d, want 6", got)
	}
	if got := p.LinkFactor(1, 0, 75); got != 0 {
		t.Errorf("down should dominate: got %d, want 0", got)
	}
	if got := p.LinkFactor(0, 1, 85); got != 6 {
		t.Errorf("slowdowns after the outage: got %d, want 6", got)
	}
	if r, isDown := p.NodeDownUntil(5, 17); !isDown || r != 25 {
		t.Errorf("overlapping crashes: NodeDownUntil = (%d, %v), want (25, true)", r, isDown)
	}
	// A nil plan, a zero-fault plan and a drop-rate-only plan: the first
	// two are empty, the last fires with zero scripted faults.
	var nilPlan *Plan
	if !nilPlan.Empty() || !MustFromFaults().Empty() {
		t.Error("nil or zero-fault plan is not empty")
	}
	if dropOnly := MustNew(Config{Seed: 9, DropRate: 0.5}, nil); dropOnly.Empty() || dropOnly.Count() != 0 {
		t.Errorf("drop-only plan: Empty=%v Count=%d, want false/0", dropOnly.Empty(), dropOnly.Count())
	}
}

// TestOverlappingSlowdownsSaturate pins "slowed, never down": however
// many slowdowns overlap on one link, the factor is their product capped
// at MaxLinkFactor, never 0 (down) and never negative, and the cap does
// not depend on the order the faults are listed in. Unchecked, 32
// overlapping ×4 slowdowns wrapped the int64 product to 0.
func TestOverlappingSlowdownsSaturate(t *testing.T) {
	slowdowns := func(k int) []Fault {
		fs := make([]Fault, k)
		for i := range fs {
			fs[i] = Fault{Kind: LinkSlow, From: int64(i), To: 1000, U: 0, V: 1, Factor: int64(2 + i%3)}
		}
		return fs
	}
	want := func(k int) int64 {
		f := int64(1)
		for i := 0; i < k && f < MaxLinkFactor; i++ {
			f *= int64(2 + i%3)
		}
		return min(f, MaxLinkFactor)
	}
	for k := 1; k <= 64; k++ {
		fs := slowdowns(k)
		if got := MustFromFaults(fs...).LinkFactor(1, 0, 500); got != want(k) {
			t.Fatalf("%d overlapping slowdowns: factor %d, want %d", k, got, want(k))
		}
		// The same slowdowns starting in reverse order multiply in reverse
		// order, and saturate the same.
		for i := range fs {
			fs[i].From = int64(k - 1 - i)
		}
		if got := MustFromFaults(fs...).LinkFactor(0, 1, 500); got != want(k) {
			t.Fatalf("%d reversed slowdowns: factor %d, want %d", k, got, want(k))
		}
	}
}

func TestHashUnitRange(t *testing.T) {
	for a := int64(0); a < 100; a++ {
		for b := int64(0); b < 10; b++ {
			u := hashUnit(12345, a, b)
			if u < 0 || u >= 1 {
				t.Fatalf("hashUnit(%d,%d) = %v outside [0,1)", a, b, u)
			}
		}
	}
	// A zero rate never drops, a rate of 1 always does.
	p := &Plan{dropRate: 1, dropSeed: 1}
	if !p.DropMove(0, 0, 0) {
		t.Error("rate-1 plan failed to drop")
	}
}
