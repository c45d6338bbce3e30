// Run ledger: a schema-versioned, append-only JSONL history of canonical
// RunRecords. Where a metrics snapshot answers "what happened in this
// process", the ledger answers "how does this run compare to every run
// before it": each benchmark invocation appends one record per
// experiment, and the regression engine in compare.go groups the
// accumulated records by configuration fingerprint to decide whether
// performance moved.
//
// The ledger follows the Collector's nil-safety contract: a nil *Ledger
// is a no-op whose methods cost zero allocations, so callers can use it
// unconditionally and an unattached run pays nothing (enforced by
// TestNilLedgerZeroAllocs).
package obs

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync"
)

// LedgerSchemaVersion is the RunRecord schema this package writes and
// the only one it reads: older and newer versions are a hard error
// rather than a silent misparse. Schema 2 replaced schema 1's
// per-feature fields with generic series maps.
const LedgerSchemaVersion = 2

// Env captures the execution environment of a record. Environment fields
// never enter the fingerprint — records from different machines share a
// fingerprint and the comparator surfaces the mismatch as a warning
// instead of silently comparing apples to oranges.
type Env struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
}

// CaptureEnv snapshots the current process environment.
func CaptureEnv() Env {
	return Env{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
}

// HistSnapshot is a frozen histogram: per-bucket counts with the same
// bounds convention as Registry histograms (Bucket.LE = -1 is the
// overflow bucket). Records carry one per histogram series so the
// comparator can pool distributions across trials instead of taking a
// median of per-trial quantiles.
type HistSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Max     int64    `json:"max"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Quantile estimates the qth quantile with Histogram.Quantile's
// semantics: the upper bound of the bucket containing the rank,
// the observed maximum for ranks landing in the overflow bucket, zero
// when empty.
func (h *HistSnapshot) Quantile(q float64) int64 {
	if h == nil || h.Count == 0 {
		return 0
	}
	rank := int64(q * float64(h.Count))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for _, b := range h.Buckets {
		seen += b.N
		if seen >= rank {
			if b.LE >= 0 {
				return b.LE
			}
			return h.Max
		}
	}
	return h.Max
}

// MergeHist returns the bucket-wise sum of two snapshots (either may be
// nil). Buckets are matched by upper bound and the result is sorted with
// the overflow bucket last, so merging is commutative and deterministic:
// merge(a,b) and merge(b,a) are byte-identical
// (TestMergeHistDeterminism).
func MergeHist(a, b *HistSnapshot) *HistSnapshot {
	if a == nil {
		a, b = b, a
	}
	if a == nil {
		return nil
	}
	if b == nil {
		b = &HistSnapshot{}
	}
	return &HistSnapshot{Count: a.Count + b.Count, Sum: a.Sum + b.Sum, Max: max(a.Max, b.Max),
		Buckets: addBuckets(a.Buckets, b.Buckets, 1)}
}

// HistDelta returns the histogram accumulated between two registry
// snapshot samples of the same histogram (prev may be the zero Sample
// for "since the beginning"). Count, Sum, and per-bucket counts
// subtract; Max cannot be deltaed from a snapshot and keeps the
// cumulative cur.Max, which is exact whenever the interval contains the
// run that set it.
func HistDelta(cur, prev Sample) *HistSnapshot {
	return &HistSnapshot{Count: cur.Count - prev.Count, Sum: cur.Sum - prev.Sum, Max: cur.Max,
		Buckets: addBuckets(cur.Buckets, prev.Buckets, -1)}
}

// addBuckets returns the bucket-wise a + sign·b, matched by upper bound,
// sorted by bound with the overflow bucket (LE -1) last; empty buckets
// are dropped.
func addBuckets(a, b []Bucket, sign int64) []Bucket {
	byLE := map[int64]int64{}
	for _, bk := range a {
		byLE[bk.LE] += bk.N
	}
	for _, bk := range b {
		byLE[bk.LE] += sign * bk.N
	}
	var out []Bucket
	for le, n := range byLE {
		if n != 0 {
			out = append(out, Bucket{LE: le, N: n})
		}
	}
	// As unsigned, the overflow bound -1 is the largest.
	slices.SortFunc(out, func(x, y Bucket) int { return cmp.Compare(uint64(x.LE), uint64(y.LE)) })
	return out
}

// RunRecord is one canonical ledger entry: the identity of what ran
// (experiment, fingerprint, config, seed), what it measured (the
// registry series it moved, keyed by full series name), and where it ran
// (Env). Time-unit series and TotalMS are the only non-deterministic
// values; everything else is reproducible from the fingerprint and seed.
type RunRecord struct {
	// Schema is the record's LedgerSchemaVersion (filled by Append).
	Schema int `json:"schema"`
	// Experiment names what ran: an experiment ID ("E5") or a bench
	// suite job ("bench/grid12").
	Experiment string `json:"experiment"`
	// Fingerprint identifies the configuration group this record belongs
	// to: a stable hash of Experiment plus the Config map (filled by
	// Append when empty). The comparator only ever compares records with
	// equal fingerprints.
	Fingerprint string `json:"fingerprint"`
	// Config holds the raw fingerprint inputs, for humans and reports.
	Config map[string]string `json:"config,omitempty"`
	// Seed is the root seed of the run.
	Seed int64 `json:"seed,omitempty"`
	// Trial distinguishes repeated runs of one fingerprint within a
	// single ledger append session (0 when unused).
	Trial int `json:"trial,omitempty"`
	// Algorithm names the schedule producer for per-job records.
	Algorithm string `json:"algorithm,omitempty"`

	// TotalMS is the whole run's wall time in milliseconds.
	TotalMS float64 `json:"total_ms,omitempty"`
	// Bound / Ratio contextualize schedule quality (per-job records).
	Bound int64   `json:"bound,omitempty"`
	Ratio float64 `json:"ratio,omitempty"`

	// Counters maps each counter and gauge series the run moved to its
	// value (see SetDelta); Hists holds each histogram series it moved.
	Counters map[string]int64         `json:"counters,omitempty"`
	Hists    map[string]*HistSnapshot `json:"hists,omitempty"`

	// Env is the execution environment.
	Env Env `json:"env"`
}

// SetDelta fills the record's series maps with what the registry
// accumulated between two snapshots: counter values and histogram
// buckets as differences, zero differences left out. Gauges are levels,
// not totals, so they only enter when the interval starts at the
// registry's creation — an empty prev.
func (r *RunRecord) SetDelta(prev, cur []Sample) {
	before := make(map[string]Sample, len(prev))
	for _, s := range prev {
		before[s.Name] = s
	}
	r.Counters, r.Hists = map[string]int64{}, map[string]*HistSnapshot{}
	for _, s := range cur {
		switch s.Kind {
		case "counter":
			if d := s.Value - before[s.Name].Value; d != 0 {
				r.Counters[s.Name] = d
			}
		case "gauge":
			if len(prev) == 0 && s.Value != 0 {
				r.Counters[s.Name] = s.Value
			}
		case "histogram":
			if h := HistDelta(s, before[s.Name]); h.Count != 0 {
				r.Hists[s.Name] = h
			}
		}
	}
}

// Fingerprint hashes an experiment name and its configuration map into
// a stable 16-hex-digit group key (FNV-1a over the sorted k=v pairs).
func Fingerprint(experiment string, cfg map[string]string) string {
	h := fnv.New64a()
	io.WriteString(h, experiment)
	keys := make([]string, 0, len(cfg))
	for k := range cfg {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		io.WriteString(h, "|")
		io.WriteString(h, k)
		io.WriteString(h, "=")
		io.WriteString(h, cfg[k])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Ledger appends RunRecords to an io.Writer sink as JSON Lines. Append
// is safe for concurrent use (RunBatch workers share one ledger); a nil
// *Ledger is a no-op.
type Ledger struct {
	mu  sync.Mutex
	w   io.Writer
	err error
}

// NewLedger wraps a writer sink. The caller owns the writer's lifetime
// (closing files, flushing buffers).
func NewLedger(w io.Writer) *Ledger { return &Ledger{w: w} }

// Append writes one record as a single JSON line, filling Schema, Env,
// and Fingerprint when the caller left them empty. The first write error
// is sticky: later appends fail fast with it.
func (l *Ledger) Append(rec *RunRecord) error {
	if l == nil || rec == nil {
		return nil
	}
	if rec.Schema == 0 {
		rec.Schema = LedgerSchemaVersion
	}
	if rec.Fingerprint == "" {
		rec.Fingerprint = Fingerprint(rec.Experiment, rec.Config)
	}
	if rec.Env == (Env{}) {
		rec.Env = CaptureEnv()
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if _, err := l.w.Write(append(data, '\n')); err != nil {
		l.err = err
		return err
	}
	return nil
}

// Err returns the sticky write error, if any.
func (l *Ledger) Err() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// ReadLedger parses a JSONL ledger stream. Blank lines are skipped;
// malformed lines and records of any other schema version are errors
// that name the offending line.
func ReadLedger(r io.Reader) ([]RunRecord, error) {
	var out []RunRecord
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Bytes()
		if len(text) == 0 {
			continue
		}
		var rec RunRecord
		if err := json.Unmarshal(text, &rec); err != nil {
			return nil, fmt.Errorf("ledger line %d: %w", line, err)
		}
		if rec.Schema != LedgerSchemaVersion {
			return nil, fmt.Errorf("ledger line %d: schema %d not supported (this build reads only schema %d; regenerate the ledger)",
				line, rec.Schema, LedgerSchemaVersion)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadLedgerFile reads a ledger from a file path.
func ReadLedgerFile(path string) ([]RunRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := ReadLedger(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}
