# Convenience targets for the scap reproduction.

.PHONY: test test-race bench bench-json bench-diff check repro flow report cover fmt vet

# Where bench-json writes its BENCH_*.json files. The default overwrites
# the committed baselines in the repo root; bench-diff points it at a
# scratch directory so a fresh run can be compared against the baselines.
BENCH_DIR ?= .

test:
	go test ./...

# Pre-PR gate: the worker-pool pipeline must be race-clean (see
# DESIGN.md "Concurrency model").
test-race:
	go test -race ./...

# One pass over every benchmark (compile + run each once); use
# `go test -bench=. -benchmem ./...` for timed runs.
bench:
	go test -bench . -benchtime 1x -run ^$$ ./...

# Machine-readable perf trajectory: run the power-grid solve and
# profiling-pipeline benchmarks with -benchmem and emit BENCH_pgrid.json,
# then the timing-simulation benchmarks into BENCH_sim.json (ns/op, B/op,
# allocs/op and extra metrics per benchmark) so regressions are comparable
# across PRs. The GridScale sweep (solve time vs node count, n=32..512,
# with grid_nodes as an extra metric) runs once per size (-benchtime 1x)
# and lands in the same BENCH_pgrid.json.
bench-json:
	{ go test -run '^$$' -bench 'Solve|Factor|IRDrop|ProfilePatterns' -benchmem . && \
	  go test -run '^$$' -bench 'GridScale' -benchtime 1x -benchmem . ; } | go run ./cmd/benchjson -o $(BENCH_DIR)/BENCH_pgrid.json
	go test -run '^$$' -bench 'Launch|TimingSimulation' -benchmem . | go run ./cmd/benchjson -o $(BENCH_DIR)/BENCH_sim.json
	go test -run '^$$' -bench '^BenchmarkDrop$$|DetectionCounts|GradeFaultSim|GradeDetections|ScreenPatterns|ProfilePatternsSerial' -benchmem . | go run ./cmd/benchjson -o $(BENCH_DIR)/BENCH_faultsim.json
	go test -run '^$$' -bench 'ATPGGenerate' -benchmem . | go run ./cmd/benchjson -o $(BENCH_DIR)/BENCH_atpg.json

# Perf-regression gate: re-run the bench-json pipelines into a scratch
# directory and diff every file against the committed baseline with
# cmd/benchdiff. Tolerances are deliberately generous (CI runners and
# single-CPU baselines are noisy); the gate exists to catch order-of-2x
# regressions, not percent-level drift. Every file is compared even after
# one fails; the target then names each failing file and fails the build.
bench-diff:
	mkdir -p .benchfresh
	$(MAKE) bench-json BENCH_DIR=.benchfresh
	failed=; \
	for f in BENCH_pgrid BENCH_sim BENCH_faultsim BENCH_atpg; do \
	  go run ./cmd/benchdiff -base $$f.json -fresh .benchfresh/$$f.json \
	    -tol-ns 4 -tol-mem 2 -tol-extra 2.5 || failed="$$failed $$f.json"; \
	done; \
	if [ -n "$$failed" ]; then echo "bench-diff: regression in$$failed" >&2; exit 1; fi

# CI-style tier-1 verify in one command, plus the benchmark module's vet
# and tests (the scale-48 paper anchors and worker-count invariance,
# ~30 s). The benchmark is a module of its own, so ./... stops short of
# it. The tree must be gofmt-clean.
check:
	test -z "$$(gofmt -l .)"
	go vet ./...
	go -C bench vet .
	go build ./...
	go test ./...
	go -C bench test .

# Regenerate every table and figure of the paper (see EXPERIMENTS.md).
repro:
	go run ./cmd/repro -scale 4 | tee docs/report_scale4.txt

# One-shot release pipeline: all artifacts under flow_out/.
flow:
	go run ./cmd/flow -scale 8 -out flow_out

# Instrumented flow run: stage-span trace, solver/pool counters and the
# versioned JSON run report under flow_out/ (see DESIGN.md "Observability").
report:
	go run ./cmd/flow -scale 8 -out flow_out -report flow_out/run_report.json

cover:
	go test ./... -coverprofile=cover.out && go tool cover -func=cover.out | tail -1

fmt:
	gofmt -w .

vet:
	go vet ./...
