package obs

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

func TestNilCollectorZeroAllocs(t *testing.T) {
	var c *Collector
	err := errors.New("boom")
	m := &ScheduleMetrics{Makespan: 6}
	moves := []Move{{Object: 0, Txn: 1, From: 0, To: 1, Depart: 0, Arrive: 1, Used: 1}}
	execs := []Exec{{Txn: 1, Node: 1, Step: 1}}
	allocs := testing.AllocsPerRun(1000, func() {
		c.Stage(0, "job", "verify", time.Millisecond, nil)
		c.Stage(0, "job", "verify", time.Millisecond, err)
		c.AddRun(0, "job", "alg", 6, m, moves, execs)
		if c.Tracing() {
			t.Fatal("nil collector must not trace")
		}
		reg := c.Registry()
		reg.Counter("x").Inc()
		reg.Counter("x", "k", "v").Add(2)
		reg.Gauge("g").Max(3)
		reg.Histogram("h").Observe(4)
	})
	if allocs != 0 {
		t.Fatalf("nil collector path allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestCollectorStageMetrics(t *testing.T) {
	c := NewMetricsCollector()
	c.Stage(0, "j", "schedule", 1500*time.Microsecond, nil)
	c.Stage(1, "k", "schedule", 500*time.Microsecond, nil)
	c.Stage(1, "k", "verify", time.Millisecond, errors.New("infeasible"))
	reg := c.Registry()
	if got := reg.Counter("engine_stage_wall_us", "stage", "schedule").Value(); got != 2000 {
		t.Errorf("schedule wall = %dµs, want 2000", got)
	}
	if got := reg.Counter("engine_stage_total", "stage", "schedule").Value(); got != 2 {
		t.Errorf("schedule completions = %d, want 2", got)
	}
	if got := reg.Counter("engine_stage_errors_total", "stage", "verify").Value(); got != 1 {
		t.Errorf("verify errors = %d, want 1", got)
	}
	// Metrics-only collector retains no traces.
	var buf bytes.Buffer
	if err := c.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("metrics-only collector exported %d bytes of trace", buf.Len())
	}
}

// lineRun is a plain-data trace of one object passed down a 6-node line
// (home node 0, users at nodes 1, 3, 5 committing at steps 1, 3, 6).
func lineRun() (*ScheduleMetrics, []Move, []Exec) {
	moves := []Move{
		{Object: 0, Txn: 0, From: 0, To: 1, Depart: 0, Arrive: 1, Used: 1},
		{Object: 0, Txn: 1, From: 1, To: 3, Depart: 1, Arrive: 3, Used: 3},
		{Object: 0, Txn: 2, From: 3, To: 5, Depart: 3, Arrive: 5, Used: 6},
	}
	execs := []Exec{{Txn: 0, Node: 1, Step: 1}, {Txn: 1, Node: 3, Step: 3}, {Txn: 2, Node: 5, Step: 6}}
	m := &ScheduleMetrics{Makespan: 6, ObjectTravel: []int64{5}, TotalTravel: 5, CriticalPath: []int{0, 1}}
	return m, moves, execs
}

func TestMaxTraceRuns(t *testing.T) {
	m, moves, execs := lineRun()
	c := NewCollectorConfig(Config{Traces: true, MaxTraceRuns: 2})
	// Record out of order: retention must keep the lowest (job, name)
	// keys regardless of arrival order.
	for _, job := range []int{3, 1, 2, 0} {
		c.AddRun(job, "j", "a", m.Makespan, m, moves, execs)
	}
	runs := c.sortedRuns()
	if len(runs) != 2 {
		t.Fatalf("retained %d runs, want 2", len(runs))
	}
	if runs[0].Job != 0 || runs[1].Job != 1 {
		t.Errorf("retained jobs %d,%d — want 0,1", runs[0].Job, runs[1].Job)
	}
}
