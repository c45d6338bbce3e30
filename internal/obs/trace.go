// Structured run traces: every recorded run keeps its pipeline stage
// records and its object-move / transaction-execute spans, exportable as
// JSONL (one self-describing record per line) and as Chrome trace-event
// JSON loadable in Perfetto or chrome://tracing.
//
// Exports are deterministic by construction: runs are ordered by (job,
// name), spans are sorted by stable keys, and wall-clock durations (which
// the registry's engine_stage_wall_us counters carry) are left out — so
// the same seed and job list produce byte-identical trace files at every
// worker count.
package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Move is one object relocation: the object departs From after the step
// Depart (its previous holder's commit, or step 0 from its home) and
// arrives at To at step Arrive = Depart + distance. Used is the step at
// which the receiving transaction executes, so Used − Arrive is the
// object's queueing delay at the destination.
type Move struct {
	Object int   `json:"object"`
	Txn    int   `json:"txn"`
	From   int   `json:"from"`
	To     int   `json:"to"`
	Depart int64 `json:"depart"`
	Arrive int64 `json:"arrive"`
	Used   int64 `json:"used"`
}

// Exec is one transaction commit.
type Exec struct {
	Txn  int   `json:"txn"`
	Node int   `json:"node"`
	Step int64 `json:"step"`
}

// Series is a per-step time series, possibly downsampled: Values[i] covers
// steps [i·Stride, (i+1)·Stride) and holds the maximum over the window.
type Series struct {
	Stride int64   `json:"stride"`
	Values []int64 `json:"values"`
}

// NodeDepth is the peak number of objects queued (arrived but not yet
// consumed) at one node.
type NodeDepth struct {
	Node int   `json:"node"`
	Peak int64 `json:"peak"`
}

// ScheduleMetrics is the time-resolved shape of one run's schedule.
type ScheduleMetrics struct {
	Makespan int64 `json:"makespan"`
	// TxnLatencyP50/P90/P99/Max summarize per-transaction latency: the
	// step at which each transaction commits, counted from batch
	// activation at step 0.
	TxnLatencyP50 int64 `json:"txn_latency_p50"`
	TxnLatencyP90 int64 `json:"txn_latency_p90"`
	TxnLatencyP99 int64 `json:"txn_latency_p99"`
	TxnLatencyMax int64 `json:"txn_latency_max"`
	// ObjectTravel[o] is the total distance object o travels.
	ObjectTravel []int64 `json:"object_travel"`
	// TotalTravel is the summed travel (= the simulator's CommCost).
	TotalTravel int64 `json:"total_travel"`
	// QueueDepth is the total number of objects sitting at some
	// requester's node waiting to be used, per step.
	QueueDepth Series `json:"queue_depth"`
	// PeakQueueDepth lists nodes by their peak local queue depth
	// (descending; ties by node ID), capped at the 16 hottest nodes.
	PeakQueueDepth []NodeDepth `json:"peak_queue_depth"`
	// LinkUtilization is the number of objects in transit (occupying
	// links) per step — the network-load profile of the schedule.
	LinkUtilization Series `json:"link_utilization"`
	// CriticalPath is the longest chain of tight object handoffs
	// (T_{i+1} executes exactly when T_i's object can first arrive);
	// its length is what pins the makespan from below.
	CriticalPath []int `json:"critical_path"`
}

// SortSpans puts span lists in their canonical export order: moves by
// (object, depart), execs by (step, txn).
func SortSpans(moves []Move, execs []Exec) {
	sort.Slice(moves, func(i, j int) bool {
		if moves[i].Object != moves[j].Object {
			return moves[i].Object < moves[j].Object
		}
		return moves[i].Depart < moves[j].Depart
	})
	sort.Slice(execs, func(i, j int) bool {
		if execs[i].Step != execs[j].Step {
			return execs[i].Step < execs[j].Step
		}
		return execs[i].Txn < execs[j].Txn
	})
}

// stageRec is one pipeline stage completion within a run.
type stageRec struct {
	Stage string
	Err   string
}

// runTrace is the full recorded trace of one engine job.
type runTrace struct {
	Job       int
	Name      string
	Algorithm string
	Makespan  int64
	Stages    []stageRec
	Metrics   *ScheduleMetrics
	Moves     []Move
	Execs     []Exec
}

// sortedRuns returns the recorded runs in deterministic (job, name) order.
func (c *Collector) sortedRuns() []*runTrace {
	c.mu.Lock()
	runs := make([]*runTrace, len(c.runs))
	copy(runs, c.runs)
	c.mu.Unlock()
	sortRuns(runs)
	return runs
}

// JSONL record schemas. Field order is fixed by the struct declarations,
// so encoding/json output is stable.
type jsonlRun struct {
	Ev        string `json:"ev"` // "run"
	Job       int    `json:"job"`
	Name      string `json:"name"`
	Algorithm string `json:"algorithm"`
	Makespan  int64  `json:"makespan"`
}

type jsonlStage struct {
	Ev    string `json:"ev"` // "stage"
	Job   int    `json:"job"`
	Name  string `json:"name"`
	Stage string `json:"stage"`
	Err   string `json:"err,omitempty"`
}

type jsonlMove struct {
	Ev     string `json:"ev"` // "move"
	Job    int    `json:"job"`
	Object int    `json:"object"`
	Txn    int    `json:"txn"`
	From   int    `json:"from"`
	To     int    `json:"to"`
	Depart int64  `json:"depart"`
	Arrive int64  `json:"arrive"`
	Used   int64  `json:"used"`
}

type jsonlExec struct {
	Ev   string `json:"ev"` // "exec"
	Job  int    `json:"job"`
	Txn  int    `json:"txn"`
	Node int    `json:"node"`
	Step int64  `json:"step"`
}

type jsonlMetrics struct {
	Ev      string           `json:"ev"` // "metrics"
	Job     int              `json:"job"`
	Metrics *ScheduleMetrics `json:"metrics"`
}

// WriteJSONL writes every recorded run as JSON Lines: a "run" header, its
// "stage" records, "move" and "exec" spans, and a closing "metrics" record
// carrying the derived schedule metrics.
func (c *Collector) WriteJSONL(w io.Writer) error {
	if c == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, r := range c.sortedRuns() {
		if err := enc.Encode(jsonlRun{Ev: "run", Job: r.Job, Name: r.Name, Algorithm: r.Algorithm, Makespan: r.Makespan}); err != nil {
			return err
		}
		for _, st := range r.Stages {
			if err := enc.Encode(jsonlStage{Ev: "stage", Job: r.Job, Name: r.Name, Stage: st.Stage, Err: st.Err}); err != nil {
				return err
			}
		}
		for _, mv := range r.Moves {
			if err := enc.Encode(jsonlMove{Ev: "move", Job: r.Job, Object: mv.Object, Txn: mv.Txn,
				From: mv.From, To: mv.To, Depart: mv.Depart, Arrive: mv.Arrive, Used: mv.Used}); err != nil {
				return err
			}
		}
		for _, ex := range r.Execs {
			if err := enc.Encode(jsonlExec{Ev: "exec", Job: r.Job, Txn: ex.Txn, Node: ex.Node, Step: ex.Step}); err != nil {
				return err
			}
		}
		if r.Metrics != nil {
			if err := enc.Encode(jsonlMetrics{Ev: "metrics", Job: r.Job, Metrics: r.Metrics}); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// chromeEvent is one Chrome trace-event record. One simulated step maps to
// one microsecond of trace time.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// Thread-ID layout within a job's process: tid 0 carries the process
// name, 1+node are node tracks, objTidBase+object are object tracks.
const objTidBase = 1 << 20

// WriteChromeTrace writes all recorded runs as one Chrome trace-event file
// (the {"traceEvents": [...]} JSON object form, which Perfetto and
// chrome://tracing both accept). Each job is a process; each node and each
// object is a thread within it. Object move spans and queue-wait spans
// live on the object tracks, execute spans on the node tracks.
func (c *Collector) WriteChromeTrace(w io.Writer) error {
	if c == nil {
		return nil
	}
	var evs []chromeEvent
	for _, r := range c.sortedRuns() {
		pid := r.Job
		evs = append(evs, chromeEvent{Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
			Args: map[string]any{"name": fmt.Sprintf("job %d: %s [%s]", r.Job, r.Name, r.Algorithm)}})
		nodeNamed := map[int64]bool{}
		nameNode := func(node int) int64 {
			tid := int64(1 + node)
			if !nodeNamed[tid] {
				nodeNamed[tid] = true
				evs = append(evs, chromeEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
					Args: map[string]any{"name": fmt.Sprintf("node %d", node)}})
			}
			return tid
		}
		objNamed := map[int64]bool{}
		nameObj := func(o int) int64 {
			tid := int64(objTidBase + o)
			if !objNamed[tid] {
				objNamed[tid] = true
				evs = append(evs, chromeEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
					Args: map[string]any{"name": fmt.Sprintf("object %d", o)}})
			}
			return tid
		}
		for _, mv := range r.Moves {
			tid := nameObj(mv.Object)
			evs = append(evs, chromeEvent{
				Name: fmt.Sprintf("o%d %d→%d", mv.Object, mv.From, mv.To), Cat: "move", Ph: "X",
				Ts: mv.Depart, Dur: mv.Arrive - mv.Depart, Pid: pid, Tid: tid,
				Args: map[string]any{"txn": mv.Txn},
			})
			if mv.Used > mv.Arrive {
				evs = append(evs, chromeEvent{
					Name: fmt.Sprintf("o%d wait", mv.Object), Cat: "wait", Ph: "X",
					Ts: mv.Arrive, Dur: mv.Used - mv.Arrive, Pid: pid, Tid: tid,
					Args: map[string]any{"txn": mv.Txn},
				})
			}
		}
		for _, ex := range r.Execs {
			tid := nameNode(ex.Node)
			evs = append(evs, chromeEvent{
				Name: fmt.Sprintf("T%d", ex.Txn), Cat: "txn", Ph: "X",
				Ts: ex.Step, Dur: 1, Pid: pid, Tid: tid,
			})
		}
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	for i, ev := range evs {
		data, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if i > 0 {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		if _, err := bw.Write(data); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// metricsFile is the schema of WriteMetrics output.
type metricsFile struct {
	// Metrics is the registry snapshot (counters, gauges, histograms).
	Metrics []Sample `json:"metrics"`
	// Runs holds the derived schedule metrics of every retained trace.
	Runs []runMetrics `json:"runs,omitempty"`
}

type runMetrics struct {
	Job       int              `json:"job"`
	Name      string           `json:"name"`
	Algorithm string           `json:"algorithm"`
	Schedule  *ScheduleMetrics `json:"schedule"`
}

// WriteMetrics writes the full metrics snapshot: the registry (txn-latency
// and object-travel histograms, stage counters, engine counters) plus the
// per-run derived schedule metrics (queue-depth and link-utilization
// series, critical path) for every retained trace.
func (c *Collector) WriteMetrics(w io.Writer) error {
	if c == nil {
		return nil
	}
	out := metricsFile{Metrics: c.reg.Snapshot()}
	for _, r := range c.sortedRuns() {
		if r.Metrics != nil {
			out.Runs = append(out.Runs, runMetrics{Job: r.Job, Name: r.Name, Algorithm: r.Algorithm, Schedule: r.Metrics})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
