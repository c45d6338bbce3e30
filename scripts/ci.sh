#!/usr/bin/env bash
# ci.sh — the repo's full verification gate in one command.
#
#   scripts/ci.sh          # gofmt, vet, build, test
#   RACE=1 scripts/ci.sh   # additionally run the race-detector pass
#
# Run from anywhere; the script cds to the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== obs import guard =="
# obs is domain-agnostic: publishers write their own series, so its
# non-test code imports no package of this module.
if go list -f '{{join .Imports "\n"}}' ./internal/obs | grep -q '^dtmsched/'; then
    echo "internal/obs imports a dtmsched package:" >&2
    go list -f '{{join .Imports "\n"}}' ./internal/obs | grep '^dtmsched/' >&2
    exit 1
fi

echo "== obs no-op overhead guard =="
# A nil *obs.Collector must cost the engine pipeline nothing: the guard
# test asserts 0 allocs/op across every nil-receiver method and the nil
# registry handles publishers write through.
go test ./internal/obs -run 'TestNilCollectorZeroAllocs|TestNilRegistry' -count=1

echo "== distance oracle guards =="
# The precomputed all-pairs matrix must keep Dist zero-alloc (and the
# warm lock-free tree cache too); the parallel-Dist benchmark must at
# least compile and run (1 iteration smoke — perf is checked manually
# with -cpu 1,4,8 -benchtime).
go test ./internal/graph -run 'TestPrecomputedDistZeroAlloc|TestWarmTreeDistZeroAlloc' -count=1
go test ./internal/graph -run '^$' -bench 'BenchmarkDistParallel' -benchtime 1x -count=1 >/dev/null

echo "== conflict-graph layer guards =="
# The ranks and summary passes must each allocate only their two
# member-sized slices, and both must match the map-based reference H;
# the member-source contract check the passes rely on must reject a
# source that leaves a member out or lists a non-requester; an
# instance's conflict index must cost exactly its two arrays at every
# size and match a per-object scan; BenchmarkDepGraphBuild (1k/10k: the
# reference, the summary pass and the ranks pass) must at least compile
# and run (1 iteration smoke — timings are checked with -benchtime).
go test ./internal/depgraph -run 'TestPassAllocs|TestBuildMatchesReference|TestCheckSourceRejects' -count=1
go test ./internal/tm -run 'TestInstanceIndexAllocs|TestIndexTxnsMatchesReference' -count=1
go test . -run '^$' -bench 'BenchmarkDepGraphBuild' -benchtime 1x -count=1 >/dev/null

echo "== randomized-round guards =="
# Cluster Approach 2 and Star's randomized periods share one activation
# round. It must emit exactly the schedules and the rounds, fallbacks,
# picked and σ stats of the two per-scheduler copies it replaced (kept in
# the test as the reference) on star and cluster shapes, stalling cases
# included, and an Approach 2 schedule on star4x8 and cluster4x8 must stay
# under a fixed malloc bound (the replaced copies made ~470 and ~400).
go test ./internal/core -run 'TestActivationMatchesReference|TestApproach2Allocs' -count=1

echo "== lower-bound oracle guards =="
# Warm oracle lookups must stay zero-alloc (a published bound is a
# pointer load), the value path must report the witness path's scalars
# while leaving the witness-only fields zero, its tree closed form must
# match Held–Karp, an object above tsp.ExactLimit must cost the value
# path its MST alone (no walk upper end), the pull-form Held–Karp kernel
# must equal the push-form reference on reused scratch, the bracket's
# matrix search must equal its metric-query reference step for step, the
# walk certificate must stay between Held–Karp's ends on random grid, cluster
# and weighted-graph metrics (and equal it whenever it claims the walk),
# the branch and bound behind it must equal Held–Karp on every walk the
# certificate leaves open or report that its budget ran out, hand a walk
# to Held–Karp (reusing its table) when a one-node budget runs out, and
# stop at a real walk no longer than the floor, never below the optimum,
# its integer recompute must stay under the optimum where the float
# value overstates it, and a warm certificate or branch and bound must
# allocate nothing, a warm value path must recycle its pooled solver's
# table instead of allocating one per call and allocate nothing at all on
# every offline-certify cell shape, concurrent first queries must race
# benignly under the race detector, and the cost-tier, value-path,
# kernel and open-walk benchmarks must at least compile and run
# (1 iteration smokes — the Measure-stage speedup is checked via
# BENCH_RESULTS.json).
go test ./internal/lower -run 'TestOracleWarmLookupZeroAllocs|TestValueWitnessFree|TestValueMatchesWitness|TestTreeWalkMatchesHeldKarp|TestValueSkipsWalkUpperEnd|TestValueRecyclesSolver|TestValueWarmZeroAllocs' -count=1
go test ./internal/tsp -run 'TestHeldKarpMatchesPushReference|TestHeuristicMatchesMetricReference|TestCertificateMatchesHeldKarp|TestBranchBudgetFallsBackToHeldKarp|TestBranchStopsAtFloor|TestCertifyRecomputesInIntegers|TestWalkAboveWarmZeroAllocs' -count=1
go test -race ./internal/lower -run 'TestOracleConcurrentFirstQuery' -count=1
go test . -run '^$' -bench 'BenchmarkLowerCompute' -benchtime 1x -count=1 >/dev/null
go test ./internal/lower -run '^$' -bench 'BenchmarkValueGrid12' -benchtime 1x -count=1 >/dev/null
go test ./internal/tsp -run '^$' -bench 'BenchmarkHeldKarp|BenchmarkWalkAboveOpen' -benchtime 1x -count=1 >/dev/null

echo "== fault layer guards =="
# sim.Run with a nil or empty fault plan must allocate exactly
# what a fault-free run does (the fault machinery is free when unused),
# a fault-free run must allocate the same whatever the object count (its
# itineraries come from one handoff CSR),
# its reroute query must equal the explicitly built surviving subgraph's
# distances, with both of its stages (the healthy shortest-path DAG walk
# and the A* fallback) answering queries and the walk backtracking out
# of a blocked branch, a faulty replay must cost the same however many
# boundaries the plan holds, fault plans must be seed-deterministic,
# equal the per-chunk math/rand reference fault for fault and cost no
# allocation per chunk, the 3-rate × 2-topology fault matrix must
# recover deterministically under the race detector, a plan's flat-array
# lookups behind their health filter must answer exactly what the raw
# fault list does (every boundary and boundary−1, negative steps, steps
# past the last boundary, IDs outside the plan), and the serving-window
# replay benchmarks (a one-window plan and a 50,000-step one, both
# matched by one -bench pattern) and the grid16 plan-build benchmark
# must at least compile and run (1-iteration smokes — the speedups are
# checked with -benchtime).
go test ./internal/sim -run 'TestRunEmptyInjectorAllocsLikeRun|TestRunAllocsIndependentOfObjects|TestFaultDistMatchesSurvivingSubgraph|TestFaultDistBacktracks|TestRunFaultyAllocsIndependentOfBoundaries' -count=1
go test ./internal/sim -run '^$' -bench 'BenchmarkFaultyReplay' -benchtime 1x -count=1 >/dev/null
go test ./internal/faults -run '^$' -bench 'BenchmarkPlanGrid16' -benchtime 1x -count=1 >/dev/null
go test -race ./internal/faults -run 'TestPlanSeedDeterminism' -count=1
go test ./internal/faults -run 'TestNewMatchesReferenceGenerator|TestNewPlanAllocsIndependentOfChunks|TestPlanLookupsMatchReference' -count=1
go test -race ./internal/sim -run 'TestFaultMatrixSmoke' -count=1

echo "== obs/v2 ledger + exposition guards =="
# The Prometheus exposition must stay byte-deterministic (golden file),
# registry updates must stay zero-alloc while a scrape is in flight, the
# regression gate must flag a synthetic 2× slowdown and pass identical
# ledgers (self-test at both the library and CLI layers), a never-seen
# count, time counter, and histogram must reach the ledger and the gate
# with no obs edit, a nil ledger must stay allocation-free, and a real
# dtmbench experiment's ledger must carry the engine's stage, simulator,
# and latency series and gate clean against itself.
go test ./internal/obs -run 'TestPromGolden|TestPromDeterministic|TestPromParseable|TestRegistryUpdateZeroAllocDuringScrape' -count=1
go test ./internal/obs -run 'TestCompareGateSelfTest|TestGateNewSeries|TestMergeHistDeterminism|TestLedgerRoundTrip|TestNilLedgerZeroAllocs' -count=1
go test ./cmd/dtmsched -run 'TestBenchGate' -count=1
go test ./cmd/dtmbench -run 'TestPublishPrefix|TestLedgerSelfGates' -count=1

echo "== ledger count determinism =="
# Count series are exact at every worker count: two parallel runs of the
# same experiment must gate clean on counts alone (the time threshold is
# opened wide so only count series can fail).
det_tmp=$(mktemp -d)
for run in a b; do
    go run ./cmd/dtmbench -quick -only E10 -parallel 2 -ledger "$det_tmp/$run.jsonl" >/dev/null
done
go run ./cmd/dtmsched bench gate -time-threshold 10 "$det_tmp/a.jsonl" "$det_tmp/b.jsonl" >/dev/null
rm -rf "$det_tmp"

echo "== CLI usage guards =="
# A run with no trials has nothing to measure: both CLIs must reject
# -trials < 1 as a usage error (exit 2) instead of passing vacuously.
# dtmsched -analyze must examine the schedule it reports (the paper's
# line schedule here, not a rescheduled greedy one). The binaries are
# built first because go run folds every failure into exit 1.
cli_tmp=$(mktemp -d)
go build -o "$cli_tmp/" ./cmd/dtmbench ./cmd/dtmsched
for trials in 0 -1; do
    for cli in "dtmbench -quick -only E1" "dtmsched -topo grid -n 4 -w 8 -k 2"; do
        code=0
        "$cli_tmp"/$cli -trials "$trials" >/dev/null 2>&1 || code=$?
        if [[ "$code" != 2 ]]; then
            echo "$cli -trials $trials exited $code, want 2" >&2
            exit 1
        fi
    done
done
"$cli_tmp"/dtmsched -topo line -n 64 -alg auto -analyze > "$cli_tmp/analyze.txt"
reported=$(sed -n 's/.* makespan=\([0-9]*\) .*/\1/p' "$cli_tmp/analyze.txt")
analyzed=$(sed -n 's/^makespan \([0-9]*\) over .*/\1/p' "$cli_tmp/analyze.txt")
if [[ -z "$reported" || "$reported" != "$analyzed" ]]; then
    echo "dtmsched -analyze: report makespan '$reported' != analyzed makespan '$analyzed'" >&2
    exit 1
fi
rm -rf "$cli_tmp"

echo "== online loop guards =="
# The online executor's steady-state tick must not allocate per step
# (buffers are hoisted once per run), and the corrected Poisson sampler
# must realize its nominal rate.
go test ./internal/online -run 'TestRunSteadyStateAllocs|TestPoissonRealizedRate|TestRandomNilRngError' -count=1
go test ./internal/xrand -run 'TestGeometricGap' -count=1

echo "== streaming service guards =="
# Serving is deterministic per seed (digest-pinned, verify-mode
# invariant), backpressure is exercised in both policies, the
# cross-window chain checker (schedule.ChainChecker) accepts both
# windows.Run modes and rejects corrupted schedules, and the
# cutter/executor overlap is race-clean. The (time, ID) sweep and the
# conflict graph's node and color orders count integer keys: each must
# equal its comparison-sort reference (seed corpora included) on both
# sides of every fallback threshold, each object's Handoffs and Travel
# must equal a per-object sort's on random schedules (ties, unrequested
# objects, infeasible times), a warm grid16-window Check must
# allocate nothing, each order must allocate only the slice it returns,
# and the window benchmarks must at least compile and run (1-iteration
# smokes).
go test ./internal/schedule ./internal/windows -run 'TestChainChecker' -count=1
go test ./internal/schedule -run 'TestCheckWarmZeroAllocs|TestSweepOrderMatchesReference|TestHandoffsMatchReference|FuzzCountingOrder' -count=1
go test ./internal/depgraph -run 'TestOrdersAllocateOneSlice|TestCountingOrderMatchesReference|FuzzCountingOrder' -count=1
go test ./internal/schedule -run '^$' -bench 'BenchmarkChainCheckerWindow' -benchtime 1x -count=1 >/dev/null
go test ./internal/depgraph -run '^$' -bench 'BenchmarkOrderByColor' -benchtime 1x -count=1 >/dev/null
go test -race ./internal/stream -count=1

echo "== serving allocation guard =="
# The serving loop must allocate nothing per transaction: a fixed
# 20k-transaction grid16 stream may cost at most 1.0 malloc per
# committed transaction (it measures ~0.62), since per-window work
# spreads over ~56 of them, and at most 1.3 under a chaos 0.1 plan (it
# measures ~0.89). Every window job must run the engine at VerifyOff
# under VerifyFast and VerifyOff, at VerifyFull under VerifyFull.
go test ./internal/stream -run 'TestServeAllocsPerTxn|TestServeChaosAllocsPerTxn|TestServeWindowVerifyPolicy' -count=1

echo "== verifier differential fuzz smoke =="
# schedule.Validate and the step-by-step simulator must agree on every
# scheduler family's output and on mutated copies of it, and the
# checker's per-object travel must equal Schedule.Travel, the walk along
# Schedule.Handoffs and the simulator's, alone and chained across windows.
go test ./internal/schedule -run '^$' -fuzz FuzzVerifiersAgree -fuzztime 10s

echo "== certified-bound soundness fuzz smoke =="
# On tiny random trees and weighted graphs the value path must equal the
# witness path, and bound ≤ exact optimum ≤ greedy makespan.
go test ./internal/lower -run '^$' -fuzz FuzzBoundSound -fuzztime 10s

echo "== jump-ahead source fuzz smoke =="
# The chaos-plan source must draw exactly what math/rand draws for the
# same seed: Float64, Int63n on both its paths, Uint64, draws past the
# jumped ones, and reseeds, including the special-cased seeds.
go test ./internal/xrand -run '^$' -fuzz FuzzJumpSource -fuzztime 10s

echo "== conflict-graph differential fuzz smoke =="
# The ranks and summary passes must equal the map-of-maps reference H and
# its greedy coloring over shuffled member subsets, over every shard of a
# partitioned index, and over an external index of an instance with
# members stripped of their objects, each source keeping the member-source
# contract.
go test ./internal/depgraph -run '^$' -fuzz FuzzBuildMatchesReference -fuzztime 10s

echo "== serve-mode smoke =="
# Drain a fixed seeded stream through the CLI twice: counts must be
# deterministic, everything admitted must commit (reject policy), the
# backpressure counters must reach the Prometheus exposition, and the
# ledger it writes must self-gate clean.
go test ./cmd/dtmsched -run 'TestServeSmoke' -count=1
serve_tmp=$(mktemp -d)
serve_args=(serve -topo line -n 16 -rate 0.8 -txns 200 -window 4 -queue 8 -policy reject -seed 11)
go run ./cmd/dtmsched "${serve_args[@]}" -ledger "$serve_tmp/serve.jsonl" -prom "$serve_tmp/serve.prom" > "$serve_tmp/run1.txt"
go run ./cmd/dtmsched "${serve_args[@]}" > "$serve_tmp/run2.txt"
if ! diff <(grep -E 'admitted=|digest=' "$serve_tmp/run1.txt" | sed 's/wall=.*//') \
          <(grep -E 'admitted=|digest=' "$serve_tmp/run2.txt" | sed 's/wall=.*//'); then
    echo "serve: same seed produced different counts/digest" >&2
    exit 1
fi
grep -q 'rejected=[1-9]' "$serve_tmp/run1.txt" || { echo "serve: overloaded reject run dropped nothing" >&2; exit 1; }
admitted=$(sed -n 's/^admitted=\([0-9]*\) .*/\1/p' "$serve_tmp/run1.txt")
committed=$(sed -n 's/.*committed=\([0-9]*\).*/\1/p' "$serve_tmp/run1.txt")
if [[ "$admitted" != "$committed" ]]; then
    echo "serve: admitted=$admitted != committed=$committed" >&2
    exit 1
fi
for m in stream_admitted_total stream_rejected_total stream_committed_total stream_queue_depth_peak; do
    grep -q "^$m" "$serve_tmp/serve.prom" || { echo "serve: $m missing from prom exposition" >&2; exit 1; }
done
go run ./cmd/dtmsched bench gate "$serve_tmp/serve.jsonl" "$serve_tmp/serve.jsonl" >/dev/null
rm -rf "$serve_tmp"

echo "== chaos serving guards =="
# Fault-tolerant serving: the race pass over internal/stream above
# already covers the chaos/requeue/breaker tests with -race; here the
# CLI layer is pinned. (1) Zero-fault digest guard: the serve smoke
# flags must keep producing the digest committed before the fault layer
# landed — the fault paths must be byte-invisible when -faults is off.
# (2) Chaos determinism: the same chaos seed twice must print identical
# counts, fault counters, and digest.
chaos_tmp=$(mktemp -d)
go run ./cmd/dtmsched "${serve_args[@]}" > "$chaos_tmp/clean.txt"
grep -q 'digest=a08187a836377e8b' "$chaos_tmp/clean.txt" || {
    echo "serve: zero-fault digest drifted from the pre-chaos baseline a08187a836377e8b" >&2
    exit 1
}
chaos_args=(serve -topo clique -n 16 -rate 1.5 -txns 200 -window 8 -queue 16 -policy block -seed 7 -faults 0.2,99)
go run ./cmd/dtmsched "${chaos_args[@]}" > "$chaos_tmp/chaos1.txt"
go run ./cmd/dtmsched "${chaos_args[@]}" > "$chaos_tmp/chaos2.txt"
if ! diff <(sed 's/wall=.*//' "$chaos_tmp/chaos1.txt") <(sed 's/wall=.*//' "$chaos_tmp/chaos2.txt"); then
    echo "serve: same chaos seed produced different runs" >&2
    exit 1
fi
grep -q 'requeued=[1-9]' "$chaos_tmp/chaos1.txt" || { echo "serve: chaos run never requeued" >&2; exit 1; }
go test ./cmd/dtmsched -run 'TestServeChaosSmoke' -count=1
rm -rf "$chaos_tmp"

echo "== hierarchical scheduler guards =="
# The subtree-sharded scheduler writes disjoint slices of one schedule
# from concurrent shard workers — the whole package must be race-clean —
# and the partitioned ConflictIndex view's Members lookups must stay
# zero-alloc (each shard's CSR build walks them in the hot path). The
# fog–cloud generator's metric/tier tests ride along.
go test -race ./internal/hier -count=1
go test ./internal/tm -run 'TestPartitionedViewZeroAlloc' -count=1
go test ./internal/topology -run 'TestFogCloud' -count=1

echo "== hier shard-worker determinism diff =="
# Byte-identical schedules at every shard-worker count: the same seeded
# fog–cloud run through the CLI with 1 worker and 8 workers must print
# identical makespans, bounds, and (deterministic) stats. The package
# test pins workers 1/4/8 on raw schedules; this diff pins the whole
# engine pipeline end to end.
hier_tmp=$(mktemp -d)
hier_args=(-topo fogcloud -fanout 4,8 -linkw 8,1 -w 64 -k 2 -alg hier -seed 7 -trials 2)
go run ./cmd/dtmsched "${hier_args[@]}" -shardworkers 1 > "$hier_tmp/w1.txt"
go run ./cmd/dtmsched "${hier_args[@]}" -shardworkers 8 > "$hier_tmp/w8.txt"
if ! diff "$hier_tmp/w1.txt" "$hier_tmp/w8.txt"; then
    echo "hier: shard-worker counts 1 and 8 produced different schedules" >&2
    exit 1
fi
grep -q 'hier_shards:4' "$hier_tmp/w1.txt" || { echo "hier: expected 4 shards in CLI stats" >&2; exit 1; }
rm -rf "$hier_tmp"

echo "== benchmark module =="
# bench/ is a nested module, so the root go test ./... never reaches it.
(cd bench && go vet ./... && go test ./...)

if [[ "${RACE:-0}" != "0" ]]; then
    echo "== go test -race =="
    go test -race ./...
fi

echo "ci: all checks passed"
