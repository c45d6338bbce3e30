package faults

import (
	"reflect"
	"sort"
	"testing"
)

// TestComposeBoundariesMerge pins the Boundaries contract of composed
// injectors: the union of every live injector's boundaries, deduplicated
// and sorted ascending, so the simulator's per-epoch subgraph cache sees
// every step at which any component's state may change.
func TestComposeBoundariesMerge(t *testing.T) {
	a := MustFromFaults(
		Fault{Kind: LinkDown, From: 10, To: 30, U: 0, V: 1},
		Fault{Kind: NodeCrash, From: 20, To: 40, Node: 2},
	)
	b := MustFromFaults(
		Fault{Kind: LinkSlow, From: 25, To: 30, U: 1, V: 2, Factor: 2}, // shares boundary 30 with a
		Fault{Kind: NodeCrash, From: 5, To: 10, Node: 3},               // shares boundary 10 with a
	)
	c := Compose(a, b)
	got := c.Boundaries()
	want := []int64{5, 10, 20, 25, 30, 40}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged boundaries = %v, want %v", got, want)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatal("boundaries not sorted")
	}
	// A Forever fault contributes its start but no end boundary.
	f := MustFromFaults(Fault{Kind: NodeCrash, From: 50, To: Forever, Node: 0})
	cf := Compose(a, f)
	gotF := cf.Boundaries()
	wantF := []int64{10, 20, 30, 40, 50}
	if !reflect.DeepEqual(gotF, wantF) {
		t.Fatalf("boundaries with Forever fault = %v, want %v", gotF, wantF)
	}
}

// TestComposeEmptySemantics pins Empty() across the Compose shapes: nil
// and empty components are skipped, zero live injectors compose to an
// empty plan usable as a nil injector, and a composition with any live
// component is never empty even if queried where nothing fires.
func TestComposeEmptySemantics(t *testing.T) {
	var nilPlan *Plan
	if !nilPlan.Empty() {
		t.Fatal("nil *Plan must report empty")
	}
	empty := MustFromFaults()
	if !empty.Empty() {
		t.Fatal("zero-fault plan must report empty")
	}
	// Drop-rate-only plans are non-empty even with zero scripted faults.
	dropOnly := MustNew(Config{Seed: 9, DropRate: 0.5}, nil)
	if dropOnly.Empty() || dropOnly.Count() != 0 {
		t.Fatalf("drop-only plan: Empty=%v Count=%d, want false/0", dropOnly.Empty(), dropOnly.Count())
	}

	c := Compose(nil, nilPlan, empty)
	if !c.Empty() {
		t.Fatal("compose of nothing live must be empty")
	}
	// The empty composition must behave as a healthy network everywhere.
	if f := c.LinkFactor(0, 1, 7); f != 1 {
		t.Fatalf("empty composition LinkFactor = %d, want 1", f)
	}
	if _, down := c.NodeDownUntil(3, 7); down {
		t.Fatal("empty composition reports a node down")
	}
	if c.DropMove(0, 0, 0) {
		t.Fatal("empty composition drops a move")
	}
	if len(c.Boundaries()) != 0 || c.Count() != 0 {
		t.Fatalf("empty composition has boundaries %v count %d", c.Boundaries(), c.Count())
	}

	live := MustFromFaults(Fault{Kind: LinkDown, From: 1000, To: 1001, U: 0, V: 1})
	mixed := Compose(empty, live, nilPlan)
	if mixed.Empty() {
		t.Fatal("composition with a live component reports empty")
	}
	// Single-live passthrough: the composition IS the live injector.
	if mixed != Injector(live) {
		t.Fatal("single live injector not returned as-is")
	}
	two := Compose(live, dropOnly)
	if two.Empty() {
		t.Fatal("two-live composition reports empty")
	}
}

// TestComposeLinkFactorPrecedence pins the precedence rules across
// composed injectors: factors multiply across components exactly as
// overlapping spans multiply within one plan, and a down link (factor 0)
// in any component dominates every slowdown, whatever the composition
// order.
func TestComposeLinkFactorPrecedence(t *testing.T) {
	slow2 := MustFromFaults(Fault{Kind: LinkSlow, From: 0, To: 100, U: 0, V: 1, Factor: 2})
	slow3 := MustFromFaults(Fault{Kind: LinkSlow, From: 0, To: 100, U: 1, V: 0, Factor: 3}) // same link, reversed endpoints
	slow5 := MustFromFaults(Fault{Kind: LinkSlow, From: 50, To: 100, U: 0, V: 1, Factor: 5})
	down := MustFromFaults(Fault{Kind: LinkDown, From: 40, To: 60, U: 0, V: 1})

	c := Compose(slow2, slow3, slow5)
	if got := c.LinkFactor(0, 1, 10); got != 6 {
		t.Fatalf("factor at 10 = %d, want 2·3 = 6", got)
	}
	if got := c.LinkFactor(1, 0, 70); got != 30 {
		t.Fatalf("factor at 70 (queried reversed) = %d, want 2·3·5 = 30", got)
	}
	// Down dominates regardless of where it sits in the composition.
	for _, injs := range [][]Injector{
		{down, slow2, slow5},
		{slow2, down, slow5},
		{slow2, slow5, down},
	} {
		if got := Compose(injs...).LinkFactor(0, 1, 55); got != 0 {
			t.Fatalf("down link not dominant (order %v): factor %d", injs, got)
		}
	}
	// Outside the down span the slowdowns reappear.
	cd := Compose(slow2, slow5, down)
	if got := cd.LinkFactor(0, 1, 65); got != 10 {
		t.Fatalf("factor after down span = %d, want 10", got)
	}
	// Untouched links stay healthy through the composition.
	if got := cd.LinkFactor(2, 3, 55); got != 1 {
		t.Fatalf("unrelated link factor = %d, want 1", got)
	}
}

// TestOverlappingSlowdownsSaturate pins "slowed, never down": however
// many slowdowns overlap on one link, within one plan or across composed
// injectors, the factor is their product capped at MaxLinkFactor, never 0
// (down) and never negative. Unchecked, 32 overlapping ×4 slowdowns
// wrapped the int64 product to 0.
func TestOverlappingSlowdownsSaturate(t *testing.T) {
	slowdowns := func(k int) []Fault {
		fs := make([]Fault, k)
		for i := range fs {
			fs[i] = Fault{Kind: LinkSlow, From: int64(i), To: 1000, U: 0, V: 1, Factor: 4}
		}
		return fs
	}
	want := func(k int) int64 {
		f := int64(1)
		for i := 0; i < k && f < MaxLinkFactor; i++ {
			f *= 4
		}
		return min(f, MaxLinkFactor)
	}
	for k := 1; k <= 64; k++ {
		p := MustFromFaults(slowdowns(k)...)
		if got := p.LinkFactor(1, 0, 500); got != want(k) {
			t.Fatalf("%d overlapping ×4 slowdowns: factor %d, want %d", k, got, want(k))
		}
		// Split across two composed plans, the product saturates the same.
		c := Compose(MustFromFaults(slowdowns(k)[:k/2]...), MustFromFaults(slowdowns(k)[k/2:]...))
		if got := c.LinkFactor(0, 1, 500); got != want(k) {
			t.Fatalf("%d slowdowns over a composition: factor %d, want %d", k, got, want(k))
		}
	}
}
