// Command bench is the dtmsched benchmark. It times the two things users
// run — the paper's certified offline pipeline (engine.Run) and the
// continuous-arrival service (stream.NewChaos + stream.Serve) — on four
// workloads, checks every output, and prints the end-to-end metrics, or
// with -trace 1 also the per-layer metrics of a traced repeat of every job
// or stream. BENCHMARK.json at
// the repository root names the workloads, metrics and regression bounds.
//
// From the repository root:
//
//	bash bench/run.sh -workload offline-certify -seed 1 -seconds 25 -trace 0
//	bash bench/run.sh -workload serve-chaos -seed 1 -seconds 25 -trace 1 -spans spans.jsonl
//	bash bench/run.sh -workload serve-steady -seed 1 -json a.json   # append the full record
//	bash bench/run.sh -compare a.json b.json                         # judge b against a
//	bash bench/run.sh -smoke                                         # all workloads at ~1% size
//
// The last line of a run's standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 0 for a correct
// run, 1 when an output was wrong or the run could not finish, and 2 for a
// usage error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload to run: offline-certify, offline-schedule, serve-steady or serve-chaos")
		seed     = fs.Int64("seed", 1, "seed the workload's inputs are derived from")
		seconds  = fs.Float64("seconds", 25, "measuring time; each workload also completes a fixed minimum of work")
		trace    = fs.Int("trace", 0, "1 = run every job or stream untraced and then traced, and print the per-layer metrics")
		jsonOut  = fs.String("json", "", "append the run's full record (provenance, all metrics, digests) to FILE as one JSON line")
		spansOut = fs.String("spans", "", "with -trace 1, write the traced spans to FILE as JSON lines")
		smoke    = fs.Bool("smoke", false, "shrink the workload (all four when -workload is empty) to ~1% of its work")
		compare  = fs.Bool("compare", false, "compare two -json files against BENCHMARK.json's bounds: -compare A.json B.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(fs.Args(), "BENCHMARK.json", stdout, stderr)
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || (*name == "" && !*smoke) {
		fmt.Fprintln(stderr, "bench: want -workload NAME [-seed N] [-seconds S] [-trace 0|1], -smoke, or -compare A.json B.json")
		return 2
	}
	var wls []workload
	if *name == "" {
		wls = workloads()
	} else {
		wl, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		wls = []workload{wl}
	}
	code := 0
	for _, wl := range wls {
		rec, err := run(context.Background(), runOptions{
			Workload: wl, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Smoke: *smoke,
		})
		if err == nil && *jsonOut != "" {
			err = appendJSON(*jsonOut, rec)
		}
		if err == nil && *spansOut != "" && rec.spans != nil {
			err = writeSpans(*spansOut, rec.spans)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", wl.Name, err)
			return 1
		}
		rec.report(stdout)
		metrics := rec.EndToEnd
		if rec.PerLayer != nil {
			metrics = rec.PerLayer
		}
		line, err := json.Marshal(struct {
			Correct   bool             `json:"correct"`
			Attempted int64            `json:"attempted"`
			Failed    int64            `json:"failed"`
			Metrics   map[string]value `json:"metrics"`
		}{rec.Correct, rec.Attempted, rec.Failed, metrics})
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", wl.Name, err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
		if !rec.Correct {
			code = 1
		}
	}
	return code
}

// appendJSON appends rec to path as one JSON line.
func appendJSON(path string, rec *record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
