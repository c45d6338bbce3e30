package analysis

import (
	"sort"

	"dtmsched/internal/obs"
	"dtmsched/internal/schedule"
	"dtmsched/internal/tm"
)

// maxSeriesPoints bounds exported series length; longer series are
// downsampled by a power-of-two stride (window maximum), which keeps the
// export deterministic and Perfetto/plot friendly.
const maxSeriesPoints = 512

func downsample(values []int64) obs.Series {
	stride := int64(1)
	for int64(len(values)) > stride*maxSeriesPoints {
		stride *= 2
	}
	if stride == 1 {
		return obs.Series{Stride: 1, Values: values}
	}
	out := make([]int64, 0, (int64(len(values))+stride-1)/stride)
	for i := 0; i < len(values); i += int(stride) {
		end := min(i+int(stride), len(values))
		var m int64
		for _, v := range values[i:end] {
			m = max(m, v)
		}
		out = append(out, m)
	}
	return obs.Series{Stride: stride, Values: out}
}

// Derive computes the time-resolved schedule metrics plus the full
// move/exec span lists for an (instance, schedule) pair, under the
// paper's synchronous timing semantics. The spans reproduce exactly the
// object movements the simulator would perform (dispatch at commit,
// travel one unit of distance per step), so traces are identical whether
// or not the verify policy actually ran the simulator.
func Derive(in *tm.Instance, s *schedule.Schedule) (*obs.ScheduleMetrics, []obs.Move, []obs.Exec) {
	m := &obs.ScheduleMetrics{Makespan: s.Makespan(), ObjectTravel: make([]int64, in.NumObjects)}
	h := s.Handoffs(in)

	// Transaction latency distribution and execute spans, which the sweep
	// lists in their canonical (step, txn) order.
	execs := make([]obs.Exec, len(s.Times))
	for i, id := range h.Sweep {
		execs[i] = obs.Exec{Txn: int(id), Node: int(in.Txns[id].Node), Step: s.Times[id]}
	}
	q := obs.Quantiles(s.Times, 0.50, 0.90, 0.99, 1.0)
	m.TxnLatencyP50, m.TxnLatencyP90, m.TxnLatencyP99, m.TxnLatencyMax = q[0], q[1], q[2], q[3]

	// Object itineraries → travel, move spans and queue/transit series.
	// An object is "in transit" during the d steps after its dispatch and
	// "queued" at its destination from arrival until its requester
	// executes — the same semantics the simulator enforces. Walked object
	// by object in handoff order, the moves come out in their canonical
	// (object, depart) order: a feasible schedule departs each object at
	// strictly increasing steps.
	steps := m.Makespan + 1
	queue := make([]int64, steps)
	transit := make([]int64, steps)
	type interval struct {
		node   int
		lo, hi int64 // queued at node during [lo, hi)
	}
	var ivs []interval
	var moves []obs.Move
	for o := 0; o < in.NumObjects; o++ {
		oid := tm.ObjectID(o)
		prevNode := in.Home[oid]
		prevTime := int64(0)
		for _, id := range h.Of(oid) {
			dest := in.Txns[id].Node
			d := in.Dist(prevNode, dest)
			m.ObjectTravel[o] += d
			arrive := prevTime + d
			used := s.Times[id]
			if d > 0 {
				moves = append(moves, obs.Move{Object: o, Txn: int(id), From: int(prevNode), To: int(dest),
					Depart: prevTime, Arrive: arrive, Used: used})
			}
			for t := prevTime + 1; t <= arrive && t < steps; t++ {
				transit[t]++
			}
			for t := arrive; t < used && t < steps; t++ {
				queue[t]++
			}
			if used > arrive {
				ivs = append(ivs, interval{int(dest), arrive, used})
			}
			prevNode, prevTime = dest, used
		}
	}

	// Per-node peak queue depth: sweep each node's [arrive, used)
	// intervals for maximum overlap.
	byNode := map[int][]interval{}
	for _, iv := range ivs {
		byNode[iv.node] = append(byNode[iv.node], iv)
	}
	for node, list := range byNode {
		type ev struct {
			t int64
			d int64
		}
		evs := make([]ev, 0, 2*len(list))
		for _, iv := range list {
			evs = append(evs, ev{iv.lo, +1}, ev{iv.hi, -1})
		}
		sort.Slice(evs, func(i, j int) bool {
			if evs[i].t != evs[j].t {
				return evs[i].t < evs[j].t
			}
			return evs[i].d < evs[j].d // close before open at the same step
		})
		var cur, best int64
		for _, e := range evs {
			cur += e.d
			best = max(best, cur)
		}
		if best > 0 {
			m.PeakQueueDepth = append(m.PeakQueueDepth, obs.NodeDepth{Node: node, Peak: best})
		}
	}
	sort.Slice(m.PeakQueueDepth, func(i, j int) bool {
		if m.PeakQueueDepth[i].Peak != m.PeakQueueDepth[j].Peak {
			return m.PeakQueueDepth[i].Peak > m.PeakQueueDepth[j].Peak
		}
		return m.PeakQueueDepth[i].Node < m.PeakQueueDepth[j].Node
	})
	if len(m.PeakQueueDepth) > 16 {
		m.PeakQueueDepth = m.PeakQueueDepth[:16]
	}

	for _, d := range m.ObjectTravel {
		m.TotalTravel += d
	}
	m.QueueDepth = downsample(queue)
	m.LinkUtilization = downsample(transit)
	for _, id := range criticalChain(in, s, h.Sweep) {
		m.CriticalPath = append(m.CriticalPath, int(id))
	}
	return m, moves, execs
}
