// Regression engine over run ledgers: group RunRecords by configuration
// fingerprint, reduce each metric to a robust location estimate (median
// plus MAD across trials and repeated runs), and judge the old→new delta
// per metric class. The class comes from the series name alone: a unit
// suffix (_ns, _us, _ms) marks wall time, which tolerates a configurable
// relative slack above a noise floor; every other series is a
// deterministic count expected to reproduce exactly, and any drift is
// flagged. A new series is therefore gated the moment a publisher writes
// it, with no edit here.
//
// The comparator is the pass/fail core behind `dtmsched bench compare`
// and `dtmsched bench gate`: Compare never errors on mismatched ledgers
// (one-sided fingerprints are reported, not fatal), and
// CompareReport.Pass() is the single gate bit.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Metric classes drive the comparison rule per metric.
const (
	// ClassTime marks wall-clock metrics: noisy, judged against
	// Thresholds.Time with a MAD noise floor and an absolute floor.
	ClassTime = "time"
	// ClassCount marks deterministic metrics: expected to reproduce
	// exactly for a fixed fingerprint and seed, judged against
	// Thresholds.Count (default 0 — any increase regresses, any
	// decrease improves).
	ClassCount = "count"
)

// Thresholds configures the regression judgment.
type Thresholds struct {
	// Time is the allowed relative increase on ClassTime metrics before
	// a regression is declared (0.30 = +30%, the default).
	Time float64
	// Count is the allowed relative change on ClassCount metrics
	// (default 0: exact reproduction expected).
	Count float64
	// MADFactor scales the robust noise floor: a time delta must exceed
	// MADFactor × max(oldMAD, newMAD) as well as the relative threshold
	// (default 3).
	MADFactor float64
	// MinTimeMS is the absolute wall-time floor: time deltas smaller
	// than this are never judged, whatever their relative size
	// (default 1 ms). Keeps 0.02 ms → 0.05 ms jitter out of the gate.
	MinTimeMS float64
}

// normalized fills zero-valued fields with the gate's defaults.
func (t Thresholds) normalized() Thresholds {
	if t.Time <= 0 {
		t.Time = 0.30
	}
	if t.MADFactor <= 0 {
		t.MADFactor = 3
	}
	if t.MinTimeMS <= 0 {
		t.MinTimeMS = 1
	}
	return t
}

// Verdicts of one metric comparison.
const (
	VerdictOK          = "ok"
	VerdictRegression  = "regression"
	VerdictImprovement = "improvement"
)

// MetricDelta is one metric's old→new judgment within a fingerprint
// group.
type MetricDelta struct {
	// Metric is the metric name: a series name, "total_ms", or a pooled
	// histogram quantile ("txn_latency_steps/p99").
	Metric string `json:"metric"`
	// Class is ClassTime or ClassCount.
	Class string `json:"class"`
	// Old / New are the robust per-side estimates (medians).
	Old float64 `json:"old"`
	New float64 `json:"new"`
	// OldMAD / NewMAD are the per-side median absolute deviations.
	OldMAD float64 `json:"old_mad,omitempty"`
	NewMAD float64 `json:"new_mad,omitempty"`
	// OldN / NewN count the records that contributed per side.
	OldN int `json:"old_n"`
	NewN int `json:"new_n"`
	// Delta is the relative change (new-old)/old; +Inf-free: 0 when old
	// is 0 and new is 0, 1 when old is 0 and new is not.
	Delta float64 `json:"delta"`
	// Verdict is VerdictOK, VerdictRegression, or VerdictImprovement.
	Verdict string `json:"verdict"`
}

// GroupDelta is one fingerprint group's comparison.
type GroupDelta struct {
	Fingerprint string            `json:"fingerprint"`
	Experiment  string            `json:"experiment"`
	Config      map[string]string `json:"config,omitempty"`
	Metrics     []MetricDelta     `json:"metrics"`
}

// CompareReport is the full result of comparing two ledgers.
type CompareReport struct {
	// Thresholds echoes the effective judgment parameters.
	Thresholds Thresholds `json:"thresholds"`
	// Groups holds per-fingerprint metric deltas, sorted by
	// (experiment, fingerprint).
	Groups []GroupDelta `json:"groups"`
	// Regressions / Improvements count judged metrics across all groups.
	Regressions  int `json:"regressions"`
	Improvements int `json:"improvements"`
	// OnlyOld / OnlyNew list experiments whose fingerprints appear on a
	// single side (configuration drift, new benchmarks); informational.
	OnlyOld []string `json:"only_old,omitempty"`
	OnlyNew []string `json:"only_new,omitempty"`
	// EnvMismatch warns when the two sides ran in different
	// environments (GOOS/GOARCH/GOMAXPROCS/CPU count); wall-time deltas
	// across environments are suspect.
	EnvMismatch string `json:"env_mismatch,omitempty"`
}

// Pass reports whether the comparison is regression-free.
func (r *CompareReport) Pass() bool { return r.Regressions == 0 }

// metricVal is one extracted (name, class, value) triple.
type metricVal struct {
	name  string
	class string
	value float64
}

// timeScale reports whether a series measures wall time and, if so, the
// divisor converting its value to milliseconds. The unit is the suffix
// of the base name: labels and a trailing _total dropped.
func timeScale(series string) (float64, bool) {
	base, _, _ := strings.Cut(series, "{")
	base = strings.TrimSuffix(base, "_total")
	switch {
	case strings.HasSuffix(base, "_ns"):
		return 1e6, true
	case strings.HasSuffix(base, "_us"):
		return 1e3, true
	case strings.HasSuffix(base, "_ms"):
		return 1, true
	}
	return 0, false
}

// gateMetrics extracts the judged scalar metrics of one record: its wall
// time and every counter or gauge series, classified by unit suffix.
// Identity fields (bound, ratio, seed) and the environment are
// deliberately excluded — they contextualize a record but are not
// performance.
func gateMetrics(r *RunRecord) []metricVal {
	var out []metricVal
	if r.TotalMS > 0 {
		out = append(out, metricVal{"total_ms", ClassTime, r.TotalMS})
	}
	for name, v := range r.Counters {
		if scale, ok := timeScale(name); ok {
			out = append(out, metricVal{name, ClassTime, float64(v) / scale})
		} else {
			out = append(out, metricVal{name, ClassCount, float64(v)})
		}
	}
	return out
}

// group is the per-side accumulation of one fingerprint.
type group struct {
	experiment string
	config     map[string]string
	values     map[string][]float64 // metric → observations
	classes    map[string]string
	hists      map[string]*HistSnapshot // series → pooled distribution
}

// accumulate folds records into fingerprint groups.
func accumulate(recs []RunRecord) map[string]*group {
	out := map[string]*group{}
	for i := range recs {
		r := &recs[i]
		g := out[r.Fingerprint]
		if g == nil {
			g = &group{
				experiment: r.Experiment,
				config:     r.Config,
				values:     map[string][]float64{},
				classes:    map[string]string{},
				hists:      map[string]*HistSnapshot{},
			}
			out[r.Fingerprint] = g
		}
		for _, mv := range gateMetrics(r) {
			g.values[mv.name] = append(g.values[mv.name], mv.value)
			g.classes[mv.name] = mv.class
		}
		for name, h := range r.Hists {
			g.hists[name] = MergeHist(g.hists[name], h)
		}
	}
	// Histograms pool across the group's records: merging the
	// distributions and reading one quantile beats a median of per-trial
	// quantiles. Time-unit histograms are not gated — their matching
	// _ns_total counter already is.
	for _, g := range out {
		for name, h := range g.hists {
			if _, ok := timeScale(name); ok {
				continue
			}
			g.values[name+"/p50"] = []float64{float64(h.Quantile(0.50))}
			g.values[name+"/p99"] = []float64{float64(h.Quantile(0.99))}
			g.classes[name+"/p50"], g.classes[name+"/p99"] = ClassCount, ClassCount
		}
	}
	return out
}

// median returns the middle of a sorted copy (mean of the central pair
// for even lengths); 0 for empty input.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mad returns the median absolute deviation around med.
func mad(xs []float64, med float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - med)
	}
	return median(dev)
}

// Compare judges new against old, grouping by fingerprint. Neither slice
// is mutated. Zero-valued thresholds select the gate's defaults.
func Compare(old, new []RunRecord, th Thresholds) *CompareReport {
	th = th.normalized()
	rep := &CompareReport{Thresholds: th}
	oldG, newG := accumulate(old), accumulate(new)

	if msg := envMismatch(old, new); msg != "" {
		rep.EnvMismatch = msg
	}

	var fps []string
	for fp := range oldG {
		if _, ok := newG[fp]; ok {
			fps = append(fps, fp)
		} else {
			rep.OnlyOld = append(rep.OnlyOld, oldG[fp].experiment+" ["+fp+"]")
		}
	}
	for fp, g := range newG {
		if _, ok := oldG[fp]; !ok {
			rep.OnlyNew = append(rep.OnlyNew, g.experiment+" ["+fp+"]")
		}
	}
	sort.Strings(rep.OnlyOld)
	sort.Strings(rep.OnlyNew)
	sort.Slice(fps, func(i, j int) bool {
		a, b := oldG[fps[i]], oldG[fps[j]]
		if a.experiment != b.experiment {
			return a.experiment < b.experiment
		}
		return fps[i] < fps[j]
	})

	for _, fp := range fps {
		og, ng := oldG[fp], newG[fp]
		gd := GroupDelta{Fingerprint: fp, Experiment: og.experiment, Config: og.config}
		var names []string
		for name := range og.values {
			if _, ok := ng.values[name]; ok {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			ov, nv := og.values[name], ng.values[name]
			md := MetricDelta{
				Metric: name, Class: og.classes[name],
				Old: median(ov), New: median(nv),
				OldN: len(ov), NewN: len(nv),
			}
			md.OldMAD, md.NewMAD = mad(ov, md.Old), mad(nv, md.New)
			md.Delta = relDelta(md.Old, md.New)
			md.Verdict = judge(md, th)
			switch md.Verdict {
			case VerdictRegression:
				rep.Regressions++
			case VerdictImprovement:
				rep.Improvements++
			}
			gd.Metrics = append(gd.Metrics, md)
		}
		rep.Groups = append(rep.Groups, gd)
	}
	return rep
}

// relDelta is (new-old)/old with the zero-old edge pinned: 0→0 is no
// change, 0→x is a unit increase.
func relDelta(old, new float64) float64 {
	if old == 0 {
		if new == 0 {
			return 0
		}
		return 1
	}
	return (new - old) / old
}

// judge applies the per-class rule to one metric delta.
func judge(md MetricDelta, th Thresholds) string {
	diff := md.New - md.Old
	switch md.Class {
	case ClassTime:
		if math.Abs(diff) < th.MinTimeMS {
			return VerdictOK
		}
		floor := th.MADFactor * math.Max(md.OldMAD, md.NewMAD)
		if md.Delta > th.Time && diff > floor {
			return VerdictRegression
		}
		if md.Delta < -th.Time && -diff > floor {
			return VerdictImprovement
		}
	default: // ClassCount
		if md.Delta > th.Count {
			return VerdictRegression
		}
		if md.Delta < -th.Count {
			return VerdictImprovement
		}
	}
	return VerdictOK
}

// envMismatch compares the first record's environment per side.
func envMismatch(old, new []RunRecord) string {
	if len(old) == 0 || len(new) == 0 {
		return ""
	}
	a, b := old[0].Env, new[0].Env
	var diffs []string
	if a.GOOS != b.GOOS || a.GOARCH != b.GOARCH {
		diffs = append(diffs, fmt.Sprintf("platform %s/%s vs %s/%s", a.GOOS, a.GOARCH, b.GOOS, b.GOARCH))
	}
	if a.GOMAXPROCS != b.GOMAXPROCS {
		diffs = append(diffs, fmt.Sprintf("GOMAXPROCS %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS))
	}
	if a.NumCPU != b.NumCPU {
		diffs = append(diffs, fmt.Sprintf("cpus %d vs %d", a.NumCPU, b.NumCPU))
	}
	return strings.Join(diffs, "; ")
}

// WriteText renders the report for terminals: the summary line, every
// regression and improvement, one-sided fingerprints, and a per-group
// ok count so silence never reads as "not checked".
func (r *CompareReport) WriteText(w io.Writer) error {
	status := "PASS"
	if !r.Pass() {
		status = "FAIL"
	}
	if _, err := fmt.Fprintf(w, "%s: %d fingerprint groups, %d regressions, %d improvements\n",
		status, len(r.Groups), r.Regressions, r.Improvements); err != nil {
		return err
	}
	if r.EnvMismatch != "" {
		fmt.Fprintf(w, "warning: environment mismatch (%s) — wall-time deltas are suspect\n", r.EnvMismatch)
	}
	for _, g := range r.Groups {
		ok := 0
		for _, m := range g.Metrics {
			if m.Verdict == VerdictOK {
				ok++
				continue
			}
			mark := "IMPROVED"
			if m.Verdict == VerdictRegression {
				mark = "REGRESSED"
			}
			fmt.Fprintf(w, "  %-9s %s [%s] %-20s %s -> %s (%+.1f%%, n=%d/%d)\n",
				mark, g.Experiment, g.Fingerprint[:8], m.Metric,
				fmtVal(m.Old), fmtVal(m.New), m.Delta*100, m.OldN, m.NewN)
		}
		fmt.Fprintf(w, "  %s [%s]: %d metrics ok\n", g.Experiment, g.Fingerprint[:8], ok)
	}
	for _, s := range r.OnlyOld {
		fmt.Fprintf(w, "  only in OLD: %s\n", s)
	}
	for _, s := range r.OnlyNew {
		fmt.Fprintf(w, "  only in NEW: %s\n", s)
	}
	return nil
}

// fmtVal prints values compactly: integers without a fraction.
func fmtVal(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.2f", v)
}

// WriteJSON renders the report as indented JSON.
func (r *CompareReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
