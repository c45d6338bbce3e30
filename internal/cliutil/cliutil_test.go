package cliutil

import (
	"errors"
	"flag"
	"reflect"
	"strings"
	"testing"

	"dtmsched/internal/faults"
	"dtmsched/internal/topology"
)

func parse(t *testing.T, topoDef TopoFlags, wlDef WorkloadFlags, args ...string) (*TopoFlags, *WorkloadFlags) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	tf := RegisterTopoFlags(fs, topoDef)
	wf := RegisterWorkloadFlags(fs, wlDef)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return tf, wf
}

func TestBuildTopologyTable(t *testing.T) {
	def := TopoFlags{Name: "clique", N: 8, Side: 4, Dim: 3, Alpha: 2, Beta: 3, Gamma: 6}
	cases := []struct {
		args []string
		want interface{}
	}{
		{[]string{}, &topology.Clique{}},
		{[]string{"-topo", "line"}, &topology.Line{}},
		{[]string{"-topo", "grid"}, &topology.Grid{}},
		{[]string{"-topo", "torus"}, &topology.Torus{}},
		{[]string{"-topo", "hypercube"}, &topology.Hypercube{}},
		{[]string{"-topo", "butterfly"}, &topology.Butterfly{}},
		{[]string{"-topo", "cluster"}, &topology.ClusterGraph{}},
		{[]string{"-topo", "star"}, &topology.Star{}},
		{[]string{"-topo", "fogcloud", "-fanout", "2,3", "-linkw", "4,1"}, &topology.FogCloud{}},
	}
	for _, tc := range cases {
		tf, _ := parse(t, def, WorkloadFlags{Name: "uniform", W: 8, K: 2}, tc.args...)
		topo, err := tf.Build()
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if reflect.TypeOf(topo) != reflect.TypeOf(tc.want) {
			t.Fatalf("%v: built %T, want %T", tc.args, topo, tc.want)
		}
	}
	tf, _ := parse(t, def, WorkloadFlags{Name: "uniform"}, "-topo", "nope")
	if _, err := tf.Build(); err == nil || !strings.Contains(err.Error(), "unknown topology") {
		t.Fatalf("unknown topology: err=%v", err)
	}
}

func TestFogCloudShapeParsing(t *testing.T) {
	fo, wt, err := ParseFogCloudShape("4, 8", "8,1")
	if err != nil || !reflect.DeepEqual(fo, []int{4, 8}) || !reflect.DeepEqual(wt, []int64{8, 1}) {
		t.Fatalf("fo=%v wt=%v err=%v", fo, wt, err)
	}
	// Empty weights default to the halving ladder.
	fo, wt, err = ParseFogCloudShape("2,2,2", "")
	if err != nil || !reflect.DeepEqual(wt, []int64{4, 2, 1}) {
		t.Fatalf("default weights: fo=%v wt=%v err=%v", fo, wt, err)
	}
	for _, bad := range [][2]string{
		{"", ""},       // no fan-out
		{"4,x", "1,1"}, // non-integer
		{"4,8", "1"},   // length mismatch
		{"4,0", "1,1"}, // zero fan-out
		{"4,8", "0,1"}, // zero weight
	} {
		if _, _, err := ParseFogCloudShape(bad[0], bad[1]); err == nil {
			t.Fatalf("shape %q/%q accepted", bad[0], bad[1])
		}
	}
}

func TestBuildWorkloadTable(t *testing.T) {
	fc := topology.NewFogCloud([]int{4, 4}, []int64{4, 1})
	def := WorkloadFlags{Name: "uniform", W: 16, K: 2}
	for _, name := range []string{"uniform", "zipf", "hotspot", "single", "localized"} {
		_, wf := parse(t, TopoFlags{}, def, "-workload", name, "-locality", "0.8")
		wl, err := wf.Build(fc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if wl.Pick == nil || wl.W < 1 {
			t.Fatalf("%s: degenerate workload %+v", name, wl)
		}
	}
	_, wf := parse(t, TopoFlags{}, def, "-workload", "nope")
	if _, err := wf.Build(fc); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestLocalizedWorkloadErrors(t *testing.T) {
	fc := topology.NewFogCloud([]int{4, 4}, []int64{4, 1})
	cases := []struct {
		wf   WorkloadFlags
		topo topology.Topology
		want string
	}{
		{WorkloadFlags{Name: "localized", W: 16, K: 2, Locality: 0.5}, topology.NewClique(8), "needs -topo fogcloud"},
		{WorkloadFlags{Name: "localized", W: 15, K: 2, Locality: 0.5}, fc, "not divisible"},
		{WorkloadFlags{Name: "localized", W: 16, K: 5, Locality: 0.5}, fc, "exceeds the per-subtree pool"},
		{WorkloadFlags{Name: "localized", W: 16, K: 2, Locality: 1.5}, fc, "outside [0,1]"},
	}
	for _, tc := range cases {
		wf := tc.wf
		if _, err := wf.Build(tc.topo); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%+v: err=%v, want %q", tc.wf, err, tc.want)
		}
	}
}

func TestFogSubtreeAssignment(t *testing.T) {
	fc := topology.NewFogCloud([]int{2, 3}, []int64{4, 1})
	assign := FogSubtree(fc)
	if got := assign(0); got != -1 {
		t.Fatalf("cloud root assigned to group %d", got)
	}
	// Fog nodes 1 and 2 root subtrees 0 and 1; their leaves follow.
	want := map[int]int{1: 0, 2: 1, 3: 0, 4: 0, 5: 0, 6: 1, 7: 1, 8: 1}
	for node, grp := range want {
		if got := assign(fc.Graph().Nodes()[node]); got != grp {
			t.Fatalf("node %d assigned to %d, want %d", node, got, grp)
		}
	}
}

func TestParseFaultSpec(t *testing.T) {
	good := map[string]FaultSpec{
		"":          {},
		"0":         {},
		"0.25":      {Rate: 0.25},
		"0.1,99":    {Rate: 0.1, Seed: 99},
		" 0.5 , 7 ": {Rate: 0.5, Seed: 7},
		"1":         {Rate: 1},
	}
	for in, want := range good {
		got, err := ParseFaultSpec(in)
		if err != nil || got != want {
			t.Errorf("ParseFaultSpec(%q) = %+v, %v; want %+v", in, got, err, want)
		}
	}
	for _, in := range []string{"1.5", "-0.1", "x", "0.1,zz", "0.1,2,3", ",", "NaN", "nan,3"} {
		if _, err := ParseFaultSpec(in); err == nil {
			t.Errorf("ParseFaultSpec(%q) accepted", in)
		}
	}
	// Out-of-range rates, NaN among them, carry the typed rate error.
	for _, in := range []string{"NaN", "1.5", "-0.1"} {
		var re *faults.RateError
		if _, err := ParseFaultSpec(in); !errors.As(err, &re) {
			t.Errorf("ParseFaultSpec(%q) = %v, want a *faults.RateError", in, err)
		}
	}
}
