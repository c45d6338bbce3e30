package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// bound is one end-to-end metric of BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkFile is the part of BENCHMARK.json -compare reads.
type benchmarkFile struct {
	EndToEnd []bound `json:"end_to_end"`
}

func readBenchmark(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// readRecords reads a -json file.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// verdict judges metric b against a. The change counts only beyond the
// bound; when either side's quartile spread exceeds the bound the result
// is "unresolved" unless every run of one side beats every run of the
// other.
func verdict(def bound, a, b []float64) (string, float64) {
	q1a, ma, q3a := quartiles(append([]float64(nil), a...))
	q1b, mb, q3b := quartiles(append([]float64(nil), b...))
	sign := 1.0
	if def.Better == "higher" {
		sign = -1
	}
	worse := sign * ratio(mb-ma, ma)
	beats := func(x, y []float64) bool { // every x better than every y
		for _, u := range x {
			for _, v := range y {
				if sign*(u-v) >= 0 {
					return false
				}
			}
		}
		return true
	}
	switch {
	case max(ratio(q3a-q1a, ma), ratio(q3b-q1b, mb)) > def.Bound:
		switch {
		case beats(b, a):
			return "better", worse
		case beats(a, b):
			return "worse", worse
		}
		return "unresolved", worse
	case worse > def.Bound:
		return "worse", worse
	case worse < -def.Bound:
		return "better", worse
	}
	return "same", worse
}

// runCompare implements -compare A.json B.json: for every workload in
// both files and every end-to-end metric, each side's median and
// quartiles and a verdict against the metric's bound; deterministic
// metrics and digests must match run for run on equal seeds. Exit 0 when
// nothing got worse or changed, 1 otherwise, 2 when the files cannot be
// compared.
func runCompare(args []string, benchPath string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "bench: -compare wants two -json files: A.json B.json")
		return 2
	}
	bf, err := readBenchmark(benchPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	det := map[string]bool{}
	for _, d := range endToEnd {
		det[d.Name] = d.Deterministic
	}
	sides := make([][]record, 2)
	for i, p := range args {
		if sides[i], err = readRecords(p); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	// Every record of a workload, on either side, must share settings.
	setting := map[string]string{}
	byWorkload := [2]map[string][]record{{}, {}}
	for i, recs := range sides {
		for _, r := range recs {
			b, _ := json.Marshal(r.Settings)
			if s, ok := setting[r.Workload]; ok && s != string(b) {
				fmt.Fprintf(stderr, "bench: refusing to compare %s runs with different settings:\n  %s\n  %s\n", r.Workload, s, b)
				return 2
			}
			setting[r.Workload] = string(b)
			byWorkload[i][r.Workload] = append(byWorkload[i][r.Workload], r)
		}
	}
	var names []string
	for w := range byWorkload[0] {
		if len(byWorkload[1][w]) > 0 {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(stderr, "bench: the two files share no workload")
		return 2
	}

	code := 0
	for _, w := range names {
		ra, rb := byWorkload[0][w], byWorkload[1][w]
		fmt.Fprintf(stdout, "%s: %d runs (A) vs %d runs (B)\n", w, len(ra), len(rb))
		for _, def := range bf.EndToEnd {
			if det[def.Name] {
				continue
			}
			a, b := metricValues(ra, def.Name), metricValues(rb, def.Name)
			v, worse := verdict(def, a, b)
			q1a, ma, q3a := quartiles(a)
			q1b, mb, q3b := quartiles(b)
			fmt.Fprintf(stdout, "  %-22s A %12.5g [%.5g, %.5g]  B %12.5g [%.5g, %.5g] %s  worse by %+6.2f%% (bound %.0f%%)  %s%s\n",
				def.Name, ma, q1a, q3a, mb, q1b, q3b, def.Unit, 100*worse, 100*def.Bound, v, pairWins(ra, rb, def))
			if v == "worse" || v == "unresolved" {
				code = 1
			}
		}
		// Deterministic metrics and digests, seed by seed.
		bySeed := map[int64]record{}
		for _, r := range ra {
			bySeed[r.Seed] = r
		}
		same, pairs := true, 0
		for _, r := range rb {
			o, ok := bySeed[r.Seed]
			if !ok {
				continue
			}
			pairs++
			for _, def := range bf.EndToEnd {
				if det[def.Name] && o.EndToEnd[def.Name].Value != r.EndToEnd[def.Name].Value {
					same = false
					fmt.Fprintf(stdout, "  seed %d: %s changed %v -> %v\n", r.Seed, def.Name, o.EndToEnd[def.Name].Value, r.EndToEnd[def.Name].Value)
				}
			}
			n := min(len(o.Digests), len(r.Digests))
			for i := 0; i < n; i++ {
				if o.Digests[i] != r.Digests[i] {
					same = false
					fmt.Fprintf(stdout, "  seed %d: digest %s -> %s\n", r.Seed, o.Digests[i], r.Digests[i])
				}
			}
		}
		switch {
		case pairs == 0:
			fmt.Fprintln(stdout, "  deterministic metrics and digests: no common seed to check")
		case same:
			fmt.Fprintf(stdout, "  deterministic metrics and digests: identical on %d common seeds\n", pairs)
		default:
			code = 1
		}
	}
	return code
}

func metricValues(recs []record, name string) []float64 {
	xs := make([]float64, 0, len(recs))
	for _, r := range recs {
		xs = append(xs, r.EndToEnd[name].Value)
	}
	return xs
}

// pairWins counts, over runs of A and B with equal seeds, how often B
// read better — the pairing rule for claiming a gain.
func pairWins(ra, rb []record, def bound) string {
	bySeed := map[int64]float64{}
	for _, r := range ra {
		bySeed[r.Seed] = r.EndToEnd[def.Name].Value
	}
	wins, pairs := 0, 0
	for _, r := range rb {
		a, ok := bySeed[r.Seed]
		if !ok {
			continue
		}
		pairs++
		b := r.EndToEnd[def.Name].Value
		if (def.Better == "higher" && b > a) || (def.Better == "lower" && b < a) {
			wins++
		}
	}
	if pairs == 0 {
		return ""
	}
	return fmt.Sprintf("  B wins %d/%d pairs", wins, pairs)
}
