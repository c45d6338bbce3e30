// The bench subcommand family judges regressions between run ledgers
// (written by `dtmbench -ledger` or `dtmsched serve -ledger`):
//
//	dtmsched bench compare [flags] OLD.jsonl NEW.jsonl
//	dtmsched bench gate    [flags] OLD.jsonl NEW.jsonl
//
// compare groups two ledgers by configuration fingerprint and reports
// per-metric deltas; gate is compare with an exit code: 1 when any
// metric regressed, so CI can record ledgers on two builds and fail the
// merge.
package main

import (
	"flag"
	"fmt"
	"os"

	"dtmsched/internal/obs"
)

const benchUsage = `usage:
  dtmsched bench compare [-json] [-time-threshold F] [-count-threshold F] [-min-ms F] [-mad-factor F] OLD.jsonl NEW.jsonl
  dtmsched bench gate    [same flags as compare] OLD.jsonl NEW.jsonl   (exit 1 on regression)`

// runBenchCmd dispatches `dtmsched bench compare|gate` and
// returns the process exit code.
func runBenchCmd(args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, benchUsage)
		return 2
	}
	switch args[0] {
	case "compare":
		return benchCompare(args[1:], false)
	case "gate":
		return benchCompare(args[1:], true)
	default:
		fmt.Fprintf(os.Stderr, "dtmsched bench: unknown subcommand %q\n%s\n", args[0], benchUsage)
		return 2
	}
}

// benchCompare implements `dtmsched bench compare` and `... gate`: read
// two ledgers, judge new against old, and render the report. compare
// always exits 0 on a well-formed comparison; gate exits 1 when any
// metric regressed.
func benchCompare(args []string, gate bool) int {
	name := "compare"
	if gate {
		name = "gate"
	}
	fs := flag.NewFlagSet("dtmsched bench "+name, flag.ExitOnError)
	var (
		asJSON  = fs.Bool("json", false, "emit the report as JSON instead of text")
		timeTh  = fs.Float64("time-threshold", 0, "allowed relative increase on wall-time metrics (0 = default 0.30)")
		countTh = fs.Float64("count-threshold", 0, "allowed relative change on deterministic counters (default 0 = exact reproduction)")
		minMS   = fs.Float64("min-ms", 0, "absolute wall-time noise floor in milliseconds (0 = default 1)")
		madF    = fs.Float64("mad-factor", 0, "MAD noise-floor multiplier for wall-time metrics (0 = default 3)")
	)
	fs.Parse(args)
	rest := fs.Args()
	if len(rest) != 2 {
		fmt.Fprintf(os.Stderr, "dtmsched bench %s: want exactly OLD and NEW ledger paths, got %d args\n%s\n",
			name, len(rest), benchUsage)
		return 2
	}
	oldRecs, err := obs.ReadLedgerFile(rest[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "dtmsched bench %s: %v\n", name, err)
		return 2
	}
	newRecs, err := obs.ReadLedgerFile(rest[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "dtmsched bench %s: %v\n", name, err)
		return 2
	}
	rep := obs.Compare(oldRecs, newRecs, obs.Thresholds{
		Time: *timeTh, Count: *countTh, MADFactor: *madF, MinTimeMS: *minMS,
	})
	if *asJSON {
		err = rep.WriteJSON(os.Stdout)
	} else {
		err = rep.WriteText(os.Stdout)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dtmsched bench %s: %v\n", name, err)
		return 2
	}
	if gate && !rep.Pass() {
		return 1
	}
	return 0
}
