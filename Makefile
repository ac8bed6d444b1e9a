# Convenience targets; everything is plain `go` underneath.

.PHONY: build test verify loc loc-check lint shapes obsguard fuzz-smoke cover cover-demo bench memprofile cpuprofile profile profile-demo trace-demo dag-demo serve serve-demo flight-demo experiments

build:
	go build ./...

test:
	go test ./...

# The tier-1 verify recipe (ROADMAP.md).
verify:
	go build ./... && go vet ./... && go test ./... && go test -race ./...

# Non-test Go lines per package outside bench/ (`wc -l`: comments and blank
# lines count) — the before/after table a simplicity PR records in CHANGES.md.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.*' -print0 \
		| xargs -0 wc -l \
		| awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%6d %s\n", n[d], d; printf "%6d total\n", t }' \
		| sort -k2

# The LOC ratchet (CI runs it): fails when `make loc`'s total exceeds the
# number committed in docs/loc.txt. A PR that needs more lines edits that
# number in the same diff, where a reviewer sees it.
loc-check:
	@now=$$($(MAKE) -s loc | awk '$$2 == "total" { print $$1 }'); max=$$(cat docs/loc.txt); \
		echo "non-test Go lines: $$now (docs/loc.txt allows $$max)"; [ "$$now" -le "$$max" ]

# Static analysis: the STAR rule linter over the built-in and extension
# repertoires (docs/LINTING.md), warnings fatal. CI also runs staticcheck
# and govulncheck over the Go code; install them locally with
#   go install honnef.co/go/tools/cmd/staticcheck@latest
#   go install golang.org/x/vuln/cmd/govulncheck@latest
lint:
	go run ./cmd/starburst lint -werror
	go run ./cmd/starburst lint -werror -ext semijoin
	go run ./cmd/starburst lint -werror -ext bloom
	go run ./cmd/starburst lint -werror -ext outerjoin
	@command -v staticcheck >/dev/null && staticcheck ./... || echo "staticcheck not installed; skipping"
	@command -v govulncheck >/dev/null && govulncheck ./... || echo "govulncheck not installed; skipping"

# Emit the plan-shape grammar the semantic lint pass infers for the
# built-in repertoire (stars/shapes/v1; docs/LINTING.md). The committed
# golden lives at testdata/shapes/builtin.shapes.json and is CI-diffed;
# regenerate it with
#   go test ./internal/starcheck -run TestBuiltinShapesGolden -update
shapes:
	go run ./cmd/starburst lint -shapes

# Repo-specific go/analysis pass: every obs emit must be guard-dominated
# so disabled observability stays zero-alloc (tools/analyzers/obsguard).
# The vettool wrapper is a nested module (needs golang.org/x/tools, which
# the main module deliberately does not depend on); the analyzer core and
# its tests are plain stdlib and run under the ordinary `make test`.
obsguard:
	cd tools/analyzers/obsguard/vettool && go mod tidy && go build -o obsguard-vet .
	go vet -vettool=tools/analyzers/obsguard/vettool/obsguard-vet ./...

# Short-budget run of each native fuzz target over its seed corpus —
# the same smoke CI runs on every push.
fuzz-smoke:
	go test ./internal/star -run FuzzParseFile -fuzz FuzzParseFile -fuzztime 20s
	go test ./internal/coverage -run FuzzTemplate -fuzz FuzzTemplate -fuzztime 20s
	go test ./internal/sqlparse -run FuzzParse -fuzz FuzzParse -fuzztime 20s
	go test ./internal/catalog -run FuzzCatalogParse -fuzz FuzzCatalogParse -fuzztime 20s
	go test ./internal/opt -run FuzzOptimizeHandler -fuzz FuzzOptimizeHandler -fuzztime 20s

# Dynamic coverage: which STAR alternatives the bundled workload corpus
# actually exercises — lint's runtime complement (docs/COVERAGE.md). The
# -min floor matches the CI gate.
cover:
	go run ./cmd/starburst cover -min 75

# Self-contained coverage demo: optimize the corpus with event collection
# on, fold the per-run opt.alt.coverage events together, cross-check the
# static linter, and print the coverage table plus the annotated
# rule-source view. See docs/COVERAGE.md.
cover-demo:
	go run ./examples/coverdemo -annotate

bench:
	go test -bench=. -benchmem

# Allocation-profile the star8 enumeration workload (one serial run,
# MemProfileRate=1) and check in the pprof -top rendering, so allocation
# regressions are reviewable in diffs (docs/PERFORMANCE.md § Memory
# architecture). Regenerate whenever the memory architecture changes.
memprofile:
	go run ./cmd/starbench -memprofile /tmp/star8.memprof
	go tool pprof -top -sample_index=alloc_objects -nodecount=30 /tmp/star8.memprof > docs/perf/star8_allocs.txt
	@echo wrote docs/perf/star8_allocs.txt

# CPU-profile the star8 and chain14 enumerations (serial, untraced, a few
# seconds of repeated optimization each) and check in the pprof -top
# renderings — the hottest functions by self time, then the repository's own
# functions by cumulative time — so a time claim diffs a committed profile,
# not only a wall clock (docs/PERFORMANCE.md § Pricing reads numbers).
CPUPROF_DIR ?= /tmp/stars-cpu
cpuprofile:
	go run ./cmd/starbench -cpuprofile $(CPUPROF_DIR)
	for w in star8 chain14; do \
		{ go tool pprof -top -nodecount=25 $(CPUPROF_DIR)/$$w.cpuprof; echo; \
		  go tool pprof -top -cum -nodecount=80 -show='^stars' $(CPUPROF_DIR)/$$w.cpuprof | sed -n '/flat%/,$$p'; \
		} > docs/perf/$${w}_cpu.txt || exit 1; \
		echo wrote docs/perf/$${w}_cpu.txt; \
	done

# Self-profile the optimizer over the workload corpus (plus the chain8 and
# star8 bench fixtures): per-phase/per-STAR time and allocation
# attribution, activity meters, and — at -parallelism > 1 — per-rank
# imbalance telemetry. See docs/PERFORMANCE.md § Profiling.
profile:
	go run ./cmd/starburst profile

# Self-contained profiling demo: profile a star join serially and
# rank-parallel and print the annotated breakdowns side by side.
profile-demo:
	go run ./examples/profiledemo

# Write a Chrome trace_event file of the Figure 3 Glue scenario
# (optimization + execution) to trace.json; open it in chrome://tracing or
# https://ui.perfetto.dev. See docs/OBSERVABILITY.md.
trace-demo:
	go run ./examples/tracedemo -o trace.json

# Same scenario, plus the search-space provenance DAG as Graphviz dot and
# the winning plan's derivation chain (Why "best"). Render the DAG with
# `dot -Tsvg dag.dot > dag.svg`. See docs/OBSERVABILITY.md.
dag-demo:
	go run ./examples/tracedemo -o trace.json -dag dag.dot

# Run the optimizer as a long-lived HTTP daemon on :8080 (POST /optimize,
# GET /metrics, GET /events, /healthz, /readyz, /debug/pprof). Ctrl-C or
# SIGTERM drains gracefully. See docs/SERVING.md.
serve:
	go run ./cmd/starburst serve

# Self-contained serving demo: start an in-process daemon on an ephemeral
# port, POST the Figure 1 query concurrently, tail the live /events stream,
# and print the returned EXPLAIN. See docs/SERVING.md.
serve-demo:
	go run ./examples/servedemo -n 3

# Flight-recorder demo: an in-place catalog stats mutation flips the
# Figure 1 plan, the plan-stability watchdog captures a stars/incident/v1
# bundle, and the incident is replayed from the bundle alone. See
# docs/OBSERVABILITY.md § Flight recorder & incidents.
flight-demo:
	go run ./examples/flightdemo

experiments:
	go run ./cmd/starbench -e all -md > experiments_output.txt
