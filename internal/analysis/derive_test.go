package analysis

import (
	"testing"

	"dtmsched/internal/graph"
	"dtmsched/internal/schedule"
	"dtmsched/internal/tm"
	"dtmsched/internal/topology"
)

// lineInstance builds a 6-node line with one object passed down the line:
// home at node 0, requested by transactions at nodes 1, 3, 5.
func lineInstance() (*tm.Instance, *schedule.Schedule) {
	topo := topology.NewLine(6)
	txns := []tm.Txn{
		{Node: 1, Objects: []tm.ObjectID{0}},
		{Node: 3, Objects: []tm.ObjectID{0}},
		{Node: 5, Objects: []tm.ObjectID{0}},
	}
	in := tm.NewInstance(topo.Graph(), graph.FuncMetric(topo.Dist), 1, txns, []graph.NodeID{0})
	// Tight: T0 at 1 (d=1 from home), T1 at 3 (d=2), T2 at 6 with one
	// step of queueing (arrives at 5, used at 6).
	s := &schedule.Schedule{Times: []int64{1, 3, 6}}
	return in, s
}

func TestDeriveLine(t *testing.T) {
	in, s := lineInstance()
	m, moves, execs := Derive(in, s)
	if m.Makespan != 6 {
		t.Errorf("makespan = %d, want 6", m.Makespan)
	}
	if m.TotalTravel != 5 || m.ObjectTravel[0] != 5 {
		t.Errorf("travel = %d (per-object %v), want 5", m.TotalTravel, m.ObjectTravel)
	}
	if len(moves) != 3 {
		t.Fatalf("moves = %d, want 3", len(moves))
	}
	// Third hop: departs node 3 at step 3, arrives node 5 at step 5,
	// used at step 6 → one step queued.
	last := moves[2]
	if last.From != 3 || last.To != 5 || last.Depart != 3 || last.Arrive != 5 || last.Used != 6 {
		t.Errorf("last move = %+v", last)
	}
	if len(execs) != 3 || execs[0].Step != 1 || execs[2].Step != 6 {
		t.Errorf("execs = %+v", execs)
	}
	// Latency percentiles over commit steps {1,3,6}.
	if m.TxnLatencyP50 != 3 || m.TxnLatencyMax != 6 {
		t.Errorf("latency p50=%d max=%d, want 3/6", m.TxnLatencyP50, m.TxnLatencyMax)
	}
	// The object is queued at node 5 during step 5 only.
	if m.QueueDepth.Stride != 1 {
		t.Fatalf("stride = %d, want 1", m.QueueDepth.Stride)
	}
	wantQueue := []int64{0, 0, 0, 0, 0, 1, 0}
	for i, v := range m.QueueDepth.Values {
		if v != wantQueue[i] {
			t.Errorf("queue[%d] = %d, want %d", i, v, wantQueue[i])
		}
	}
	// In transit during steps 1, 2-3 (second hop d=2 departs at 1... no:
	// hop1 step 1; hop2 steps 2,3; hop3 steps 4,5): transit profile.
	wantTransit := []int64{0, 1, 1, 1, 1, 1, 0}
	for i, v := range m.LinkUtilization.Values {
		if v != wantTransit[i] {
			t.Errorf("transit[%d] = %d, want %d", i, v, wantTransit[i])
		}
	}
	if len(m.PeakQueueDepth) != 1 || m.PeakQueueDepth[0].Node != 5 || m.PeakQueueDepth[0].Peak != 1 {
		t.Errorf("peak queue = %+v, want node 5 peak 1", m.PeakQueueDepth)
	}
	// All three handoffs are tight except the last (arrives 5, used 6):
	// critical path is T0 → T1.
	if len(m.CriticalPath) != 2 || m.CriticalPath[0] != 0 || m.CriticalPath[1] != 1 {
		t.Errorf("critical path = %v, want [0 1]", m.CriticalPath)
	}
}

func TestDownsample(t *testing.T) {
	long := make([]int64, 4*maxSeriesPoints)
	for i := range long {
		long[i] = int64(i)
	}
	s := downsample(long)
	if s.Stride != 4 {
		t.Errorf("stride = %d, want 4", s.Stride)
	}
	if len(s.Values) != maxSeriesPoints {
		t.Errorf("len = %d, want %d", len(s.Values), maxSeriesPoints)
	}
	if s.Values[0] != 3 || s.Values[len(s.Values)-1] != int64(len(long)-1) {
		t.Errorf("window maxima wrong: first=%d last=%d", s.Values[0], s.Values[len(s.Values)-1])
	}
	short := downsample([]int64{1, 2})
	if short.Stride != 1 || len(short.Values) != 2 {
		t.Errorf("short series should pass through, got %+v", short)
	}
}
