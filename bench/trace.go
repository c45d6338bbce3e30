package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"dtmsched/internal/engine"
)

// Span is one traced interval. Spans of one job or stream share a
// TraceID; roots have ParentID 0. Times are nanoseconds since the traced
// run began. Synthetic spans are placed by the benchmark from a duration
// the program reported (Report.Timing), not observed at their edges.
type Span struct {
	TraceID   int    `json:"trace_id"`
	SpanID    int    `json:"span_id"`
	ParentID  int    `json:"parent_id"`
	Name      string `json:"name"`
	Start     int64  `json:"start_ns"`
	End       int64  `json:"end_ns"`
	Synthetic bool   `json:"synthetic,omitempty"`
	// Cell labels an offline root with its input cell.
	Cell string `json:"cell,omitempty"`
}

// tracer keeps a run's spans in memory.
type tracer struct {
	base  time.Time
	spans []Span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.base).Nanoseconds() }

// add records a span and returns its id. A child is clamped to its
// parent's interval.
func (t *tracer) add(trace, parent int, name string, start, end int64, synthetic bool) int {
	if parent > 0 {
		p := t.spans[parent-1]
		start = max(start, p.Start)
		end = max(min(end, p.End), start)
	}
	t.spans = append(t.spans, Span{TraceID: trace, SpanID: len(t.spans) + 1, ParentID: parent,
		Name: name, Start: start, End: end, Synthetic: synthetic})
	return len(t.spans)
}

// stageEvent is one engine hook event with the time it arrived.
type stageEvent struct {
	stage   engine.Stage
	elapsed time.Duration
	at      time.Time
	report  *engine.Report
}

// recorder returns an engine hook that appends every event to *evs.
func recorder(evs *[]stageEvent) engine.Hook {
	return func(ev engine.Event) {
		*evs = append(*evs, stageEvent{ev.Stage, ev.Elapsed, time.Now(), ev.Report})
	}
}

// addRun rebuilds one engine run's spans under parent from its hook
// events: the run itself (named name), one child per stage, named
// prefix+stage, and obs.record from the last stage to StageDone. It
// returns the run's span id.
//
// The schedule stage's children are placed from timing: depgraph.build
// and hier.shard at its start, hier.merge at its end. A hierarchical
// scheduler builds graphs in both phases, so depgraph.build may overlap
// either; self times count an overlap once.
func (t *tracer) addRun(trace, parent int, name, prefix string, evs []stageEvent, timing *engine.Timing) int {
	// The run spans from the first stage's start to the StageDone event;
	// StageDone's own elapsed time is taken before the engine hands the
	// run to its collector, so it would start the span too late.
	first, done := evs[0], evs[len(evs)-1]
	run := t.add(trace, parent, name, t.ns(first.at)-first.elapsed.Nanoseconds(), t.ns(done.at), false)
	if len(evs) > 1 {
		// Between the last stage and StageDone the engine only hands the
		// run to its collector (obs.Collector.RecordRun).
		t.add(trace, run, "obs.record", t.ns(evs[len(evs)-2].at), t.ns(done.at), false)
	}
	for _, ev := range evs[:len(evs)-1] {
		end := t.ns(ev.at)
		id := t.add(trace, run, prefix+ev.stage.String(), end-ev.elapsed.Nanoseconds(), end, false)
		if ev.stage != engine.StageSchedule || timing == nil {
			continue
		}
		s := t.spans[id-1]
		if timing.HierShard > 0 || timing.HierMerge > 0 {
			t.add(trace, id, "hier.shard", s.Start, s.Start+timing.HierShard.Nanoseconds(), true)
			t.add(trace, id, "hier.merge", s.End-timing.HierMerge.Nanoseconds(), s.End, true)
		}
		if timing.DepGraphBuild > 0 {
			t.add(trace, id, "depgraph.build", s.Start, s.Start+timing.DepGraphBuild.Nanoseconds(), true)
		}
	}
	return run
}

// selfTimes returns each span's duration minus the part of its interval
// its children cover, indexed like spans.
func selfTimes(spans []Span) []int64 {
	idx := make(map[int]int, len(spans))
	for i, s := range spans {
		idx[s.SpanID] = i
	}
	kids := make(map[int][]int)
	for i, s := range spans {
		if p, ok := idx[s.ParentID]; ok && s.ParentID != 0 {
			kids[p] = append(kids[p], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(s, kids[i], spans)
	}
	return self
}

// covered is the length of the union of the children's intervals within
// the parent's.
func covered(parent Span, kids []int, spans []Span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, parent.Start), min(spans[k].End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, reach int64
	reach = parent.Start
	for _, v := range ivs {
		if v.a > reach {
			reach = v.a
		}
		if v.b > reach {
			total += v.b - reach
			reach = v.b
		}
	}
	return total
}

// spanTotals sums span durations and self times by name.
type spanTotals struct {
	dur, self map[string]float64 // ns
	// cellSelf and cellRoots sum self times by the cell of their root.
	cellSelf  map[string]map[string]float64
	cellRoots map[string]int
	roots     int
	// minCoverage is the smallest share of a root's wall that layer spans
	// cover: everything but the self time of the benchmark's roots and of
	// the engine.run wrapper (engine bookkeeping between stages).
	minCoverage float64
}

func totals(spans []Span) spanTotals {
	st := spanTotals{dur: map[string]float64{}, self: map[string]float64{},
		cellSelf: map[string]map[string]float64{}, cellRoots: map[string]int{}, minCoverage: 1}
	self := selfTimes(spans)
	roots := map[int]Span{}
	unattributed := map[int]float64{}
	for _, s := range spans {
		if s.ParentID == 0 {
			roots[s.TraceID] = s
			st.roots++
			st.cellRoots[s.Cell]++
		}
	}
	for i, s := range spans {
		st.dur[s.Name] += float64(s.End - s.Start)
		st.self[s.Name] += float64(self[i])
		c := roots[s.TraceID].Cell
		if st.cellSelf[c] == nil {
			st.cellSelf[c] = map[string]float64{}
		}
		st.cellSelf[c][s.Name] += float64(self[i])
		switch s.Name {
		case "bench.job", "bench.stream", "engine.run":
			unattributed[s.TraceID] += float64(self[i])
		}
	}
	for id, r := range roots {
		if d := float64(r.End - r.Start); d > 0 {
			st.minCoverage = min(st.minCoverage, 1-unattributed[id]/d)
		}
	}
	return st
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
