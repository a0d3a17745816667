GO ?= go

# BENCH_BASELINE is the perf-trajectory snapshot regressions are
# warned against: the latest committed spampsm-bench/v2 document
# (BENCH_6+ are serve/memsched/incremental/cluster documents with
# their own schemas, which benchjson refuses to compare). Both
# bench-json and CI's bench-radar route through this variable, so a
# future snapshot bump edits one line here instead of hardcoded paths.
BENCH_BASELINE ?= BENCH_5.json

# The cluster radar's pair: the wire-v1 snapshot the v2 wire was
# measured against, and the committed v2 document. benchjson diffs the
# machine-independent wire-accounting columns (ship share,
# continuation share, exactly-once recovery) between the two — no
# benchmarks are run, so this is cheap enough for CI.
CLUSTER_BASELINE ?= BENCH_9.json
CLUSTER_CURRENT ?= BENCH_10.json

.PHONY: build test vet race bench bench-quick bench-json bench-radar serve-smoke bench-serve bench-memsched bench-incremental incremental-smoke bench-cluster cluster-smoke cluster-stress perfbench-check oracle check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench . -benchtime 1x .

# bench-quick is the CI smoke benchmark: the seed-load,
# engine-construction, geometry-predicate, partner-search and
# task-scheduler microbenchmarks at a short benchtime, well under
# 60 s. It exists to catch gross wall-clock regressions (an optimized
# variant suddenly slower than its baseline) without the cost of the
# full bench-json matrix.
bench-quick:
	$(GO) test -run '^$$' -bench 'BenchmarkSeedLoad|BenchmarkEngineBuild' \
		-benchtime 0.3s ./internal/ops5/
	$(GO) test -run '^$$' -bench 'BenchmarkGeomPredicates' \
		-benchtime 0.3s ./internal/geom/
	$(GO) test -run '^$$' -bench 'BenchmarkPartnerSearch' \
		-benchtime 0.3s ./internal/spam/
	$(GO) test -run '^$$' -bench 'BenchmarkSchedulerPolicies' \
		-benchtime 0.3s ./internal/machine/

# bench-json regenerates the perf-trajectory snapshot: Go benchmarks
# over internal/rete, internal/ops5, internal/tlp, internal/matchbench,
# internal/geom and an end-to-end scaled-down interpretation, with
# indexed-vs-naive matcher, instantiate-vs-recompile engine
# construction, batched-vs-unbatched seed-load, fast-vs-exact geometry
# and grid-vs-scan partner-search comparisons, written to BENCH_5.json
# and checked (non-fatally) against the previous snapshot (see
# docs/PERFORMANCE.md).
bench-json:
	$(GO) run ./cmd/benchjson -out BENCH_5.json -compare BENCH_4.json

# bench-radar is CI's wall-clock regression radar: one fast min-of-1
# pass over the benchjson matrix compared against $(BENCH_BASELINE).
# Warnings are non-fatal by design — short benchtimes on shared CI
# runners are noisy — but land in the log for review.
bench-radar:
	$(GO) run ./cmd/benchjson -out /tmp/BENCH.ci.json -benchtime 0.2s -count 1 \
		-compare $(BENCH_BASELINE)
	$(GO) run ./cmd/benchjson -compare $(CLUSTER_BASELINE) -cluster $(CLUSTER_CURRENT)

# serve-smoke is the CI smoke test for the interpretation service
# (cmd/spamserve, docs/SERVING.md): it starts the server in-process,
# fires a small mixed clean + fault-injected + incremental-session
# workload at it through the load generator, and fails unless every
# /healthz probe passed and the resulting serve-bench summary is
# well-formed. The document goes to a scratch path so the committed
# BENCH_6.json snapshot is untouched.
serve-smoke:
	$(GO) run ./cmd/spamload -self-serve -requests 6 -concurrency 3 \
		-datasets DC,MOFF -scenarios clean,faults,updates \
		-session-updates 2 -out /tmp/BENCH_6.smoke.json -check

# bench-serve regenerates the committed BENCH_6.json serving snapshot:
# the full default workload (24 requests x 6 clients over SF/DC/MOFF,
# clean and fault-injected scenarios) against an in-process server.
bench-serve:
	$(GO) run ./cmd/spamload -self-serve -out BENCH_6.json -check

# oracle runs the differential oracles — one-shot vs session task
# decomposition (same task IDs and per-phase charges), indexed vs
# naive matcher, template-instantiated vs fresh-compiled engines,
# fast-vs-exact geometry, the scheduling policies (simulator vs Run
# anchor, pool policies and memory budgets vs the serial FIFO
# baseline), and the incremental-update path (retract/reassert vs
# fresh load, warm-engine reset, session updates vs from-scratch
# re-interpretation, at the engine, spam and serve layers) — at every
# level (rete scripts, ops5 engines, geometry kernels, the scheduler,
# the task-process pool, full-SPAM interpretations, the HTTP session
# surface), under the race detector. These are the byte-identity
# guarantees of docs/PERFORMANCE.md; everything here also runs as part
# of `race`, but this target names the contract and fails fast on it.
oracle:
	$(GO) test -race \
		-run 'Differential|Template|Concurrent|MatcherToggles|VariantCache|DecompositionIdentity' \
		./internal/rete/ ./internal/ops5/ ./internal/geom/ ./internal/spam/ \
		./internal/tlp/ ./internal/machine/ ./internal/serve/ ./internal/cluster/

# bench-memsched regenerates the committed BENCH_7.json snapshot: the
# memory-aware scheduling experiment's makespan-vs-memory-budget
# curves (every policy at P=1..64 over SF/DC/MOFF) plus the 10x-scale
# stress scene where the bounded policy fits a budget FIFO's peak
# exceeds. The report is invariant-checked before it is written.
bench-memsched:
	$(GO) run ./cmd/spambench -experiment ext-memsched -json BENCH_7.json

# bench-incremental regenerates the committed BENCH_8.json snapshot:
# the incremental re-interpretation churn ladder (1/5/20% scene churn
# over SF/DC/MOFF at calibrated scale, update cost vs a timed
# from-scratch re-interpretation). The report is invariant-checked —
# including byte-identity of every updated result and the calibrated
# DC@1% proportionality bound — before it is written.
bench-incremental:
	$(GO) run ./cmd/spambench -experiment ext-incremental -json BENCH_8.json

# incremental-smoke is the CI smoke version of bench-incremental: the
# same ladder at reduced subset scale (where the proportionality bound
# is deliberately not enforced — absolute constraint radii make small
# scenes non-local) to a scratch path, leaving the committed
# BENCH_8.json untouched. Identity and diff accounting are still
# checked on every point.
incremental-smoke:
	$(GO) run ./cmd/spambench -experiment ext-incremental \
		-subset-scale 0.35 -json /tmp/BENCH_8.smoke.json

# bench-cluster regenerates the committed BENCH_10.json snapshot: the
# multi-process cluster scale-out experiment (SF/DC/MOFF and the
# 10x-scale stress scene at 1/2/4 worker processes, content-addressed
# wire-v2 volume accounting with the v1 counterfactual and the
# worker-side continuation share, against the simulated svm/msgpass
# projections) plus the worker-kill recovery run with re-entry
# enabled, at the subset scale the snapshot was calibrated at. The
# report is invariant-checked before it is written — including the
# shipped-bytes budget (wire bytes per modeled seed byte must hold a
# 3x reduction over BENCH_9.json's v1 wire on SF/DC/MOFF); wall-clock
# columns are host-dependent and deliberately ungated.
bench-cluster:
	$(GO) run ./cmd/spambench -experiment ext-cluster -subset-scale 0.4 -json BENCH_10.json

# cluster-smoke is the CI smoke test for the multi-process cluster
# runtime (internal/cluster, docs/CLUSTER.md): a real scaled-down DC
# interpretation over two worker processes, then the same scene
# re-interpreted single-process in-process, failing unless the outputs
# are byte-identical and the run shipped its whole task queue over the
# wire. It runs twice: once on the default content-addressed wire v2,
# once pinned to -cluster-wire-v1, so the version-negotiation path and
# the inline-seed compatibility wire keep their own byte-identity
# coverage.
cluster-smoke:
	$(GO) run ./cmd/spamrun -dataset DC -scale 0.4 -workers 2 \
		-cluster-workers 2 -cluster-check
	$(GO) run ./cmd/spamrun -dataset DC -scale 0.4 -workers 2 \
		-cluster-workers 2 -cluster-check -cluster-wire-v1

# cluster-stress repeats the cluster tests that exercise the most
# worker-side concurrency — two local executors per worker process
# under several run configurations — five times over. A worker-side
# data race kills the worker process rather than failing a test
# directly, so one clean run proves little; repetition does.
cluster-stress:
	$(GO) test -count=5 \
		-run 'TestDifferentialClusterInterpret|TestClusterWireV1Compat|TestClusterChunkEviction' \
		./internal/cluster/

# perfbench-check vets and tests the end-to-end benchmark (perfbench/,
# a Go module of its own that `go build ./...` never reaches), so an
# API change in spam, serve, cluster or tlp cannot silently break it.
# Its tests include TestSmoke's stored per-phase fingerprints.
perfbench-check:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test -count=1 ./...

# check is the full verification gate: the tier-1 build and tests,
# static analysis, the differential oracles, the race detector over
# every package, the cluster stress leg and the benchmark module.
check: build test vet oracle race cluster-stress perfbench-check
