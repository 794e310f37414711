# Make targets mirror .github/workflows/ci.yml exactly, so a green `make ci`
# locally means a green CI run — the two cannot drift because CI calls these
# targets.

GO ?= go

GIT_SHA := $(shell git rev-parse --short HEAD 2>/dev/null || echo nogit)

# Build stamping: every binary's -version flag reports these via pkg/c3d.
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
BUILD_DATE := $(shell date -u +%Y-%m-%dT%H:%M:%SZ)
LDFLAGS := -X c3d/pkg/c3d.buildVersion=$(VERSION) \
           -X c3d/pkg/c3d.buildCommit=$(GIT_SHA) \
           -X c3d/pkg/c3d.buildDate=$(BUILD_DATE)

.PHONY: all build binaries test bench-test race lint lint-fmt lint-analyzers lint-inline vet bench bench-smoke determinism topology-smoke trace-roundtrip fuzz-smoke daemon-smoke fleet-smoke chaos-smoke spec-smoke sample-smoke ci

all: build

build:
	$(GO) build ./...

# Version-stamped binaries for all five tools, under ./bin.
binaries:
	$(GO) build -ldflags "$(LDFLAGS)" -o bin/ ./cmd/c3dsim ./cmd/c3dexp ./cmd/c3dcheck ./cmd/c3dtrace ./cmd/c3dd

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench/ is its own Go module, so `go test ./...` above never compiles the
# benchmark harness; this runs its tests against the working tree.
bench-test:
	cd bench && $(GO) test ./...

lint: lint-fmt vet lint-analyzers lint-inline

# gofmt -l prints offending files; fail if any.
lint-fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# The four c3dlint analyzers (determinism, ctxcheck, wirecompat,
# errenvelope): compile-time enforcement of the invariants the smoke gates
# below check dynamically. Stdlib-only, so it rides the same build cache as
# everything else; the whole run is a few seconds warm.
lint-analyzers:
	$(GO) run ./cmd/c3dlint ./...

# The cache read paths must stay inlinable: (*Cache).set and the four read
# paths that call it sit within a few units of the compiler's inlining
# budget, and a cache-bound run pays measurably when one stops inlining. The
# target fails naming every function `go build -gcflags=-m` no longer reports
# as `can inline`.
INLINE_CACHE_FUNCS := set Probe Contains Invalidate CleanBlock
lint-inline:
	@out="$$($(GO) build -gcflags=-m ./internal/cache 2>&1)"; missing=; \
	for f in $(INLINE_CACHE_FUNCS); do \
		echo "$$out" | grep -q "can inline (\*Cache)\.$$f$$" || missing="$$missing (*Cache).$$f"; \
	done; \
	if [ -n "$$missing" ]; then echo "internal/cache: no longer inlinable:$$missing"; exit 1; fi

# Full benchmark run (minutes): every paper artefact plus micro-benchmarks.
bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of every benchmark: catches hot-path regressions that panic,
# error or allocate wildly, without paying for statistically stable numbers.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -benchmem -run=^$$ ./...

# Byte-identical sweep output and model-check reports across parallelism
# levels, exercised through the real CLIs. Memoised versus streamed traces
# are covered by internal/experiments' TestStreamingMatchesMaterialised.
determinism:
	$(GO) run ./cmd/c3dexp -exp table1 -quick -workloads streamcluster -accesses 2000 -json -parallel 1 > /tmp/c3d-sweep-p1.json
	$(GO) run ./cmd/c3dexp -exp table1 -quick -workloads streamcluster -accesses 2000 -json > /tmp/c3d-sweep-pN.json
	cmp /tmp/c3d-sweep-p1.json /tmp/c3d-sweep-pN.json
	@echo "sweep output bit-identical across parallelism levels"
	$(GO) run ./cmd/c3dcheck -sockets 3 -max-states 60000 -json -parallel 1 > /tmp/c3d-mc-p1.json
	$(GO) run ./cmd/c3dcheck -sockets 3 -max-states 60000 -json -parallel 8 > /tmp/c3d-mc-p8.json
	cmp /tmp/c3d-mc-p1.json /tmp/c3d-mc-p8.json
	@echo "model-check reports bit-identical across parallelism levels"

# Generalized-fabric gate through the real CLI: one quick workload on the
# mesh and fully-connected topologies at 8 sockets, each byte-compared
# across parallelism levels — the topology table must be as deterministic
# as the paper's shapes.
topology-smoke:
	$(GO) run ./cmd/c3dexp -exp fig8 -quick -sockets 8 -topology mesh -workloads streamcluster -accesses 2000 -json -parallel 1 > /tmp/c3d-topo-mesh-p1.json
	$(GO) run ./cmd/c3dexp -exp fig8 -quick -sockets 8 -topology mesh -workloads streamcluster -accesses 2000 -json -parallel 8 > /tmp/c3d-topo-mesh-p8.json
	cmp /tmp/c3d-topo-mesh-p1.json /tmp/c3d-topo-mesh-p8.json
	$(GO) run ./cmd/c3dexp -exp fig8 -quick -sockets 8 -topology full -workloads streamcluster -accesses 2000 -json -parallel 1 > /tmp/c3d-topo-full-p1.json
	$(GO) run ./cmd/c3dexp -exp fig8 -quick -sockets 8 -topology full -workloads streamcluster -accesses 2000 -json -parallel 8 > /tmp/c3d-topo-full-p8.json
	cmp /tmp/c3d-topo-full-p1.json /tmp/c3d-topo-full-p8.json
	@echo "mesh@8 and fully-connected@8 results bit-identical across parallelism levels"

# Trace codec round-trip gate through the real CLI: generate → encode →
# decode must preserve every stream statistic bit-for-bit, and the committed
# v1 and v2 golden fixtures must replay to the same summary and records (the
# v1 reader has no writer left, so this keeps it exercised end to end).
trace-roundtrip:
	$(GO) run ./cmd/c3dtrace -workload streamcluster -threads 8 -accesses 2000 -summary=false -out /tmp/c3d-trace.c3dt
	$(GO) run ./cmd/c3dtrace -workload streamcluster -threads 8 -accesses 2000 > /tmp/c3d-trace-gen.txt
	$(GO) run ./cmd/c3dtrace -in /tmp/c3d-trace.c3dt > /tmp/c3d-trace-dec.txt
	cmp /tmp/c3d-trace-gen.txt /tmp/c3d-trace-dec.txt
	$(GO) run ./cmd/c3dtrace -in internal/trace/testdata/golden-v1.c3dt -dump 3 > /tmp/c3d-trace-v1.txt
	$(GO) run ./cmd/c3dtrace -in internal/trace/testdata/golden-v2.c3dt -dump 3 > /tmp/c3d-trace-v2.txt
	cmp /tmp/c3d-trace-v1.txt /tmp/c3d-trace-v2.txt
	@echo "trace generate → encode → decode round trip bit-identical; v1 and v2 fixtures replay alike"

# Short fuzz passes over the hostile-input parsers — the trace decoder, the
# workload-spec DSL, the text-trace ingester and the sampling schedule:
# corrupt and truncated inputs must produce errors, never panics or unbounded
# allocations, and an ingested text trace must round-trip through WriteText.
# The last two passes decode bytes into operation sequences and check them
# against a reference: the sparse directory, whose sets grow on use, against
# a flat fixed-ways array, and the chunked cache against a flat tag array.
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzDecode -fuzztime=10s ./internal/trace
	$(GO) test -run=^$$ -fuzz=FuzzParse -fuzztime=10s ./internal/wspec
	$(GO) test -run=^$$ -fuzz=FuzzIngest -fuzztime=10s ./internal/wspec
	$(GO) test -run=^$$ -fuzz=FuzzParse -fuzztime=10s ./internal/sample
	$(GO) test -run=^$$ -fuzz=FuzzDirectoryUpdate -fuzztime=10s ./internal/coherence
	$(GO) test -run=^$$ -fuzz=FuzzCacheOps -fuzztime=10s ./internal/cache

# Daemon gate through the real binary: build c3dd, start it, and drive it end
# to end with the Go smoke driver — healthz, capabilities, error envelope,
# submit, event stream, result — through the public api.Client (the curl/sed
# sequences this gate used before the wire types went public are now the
# client's job). The fetched result must cmp equal to `c3dexp -json` with the
# same parameters: the server and the CLI are the same code path down to the
# byte.
daemon-smoke:
	$(GO) build -ldflags "$(LDFLAGS)" -o /tmp/c3dd-smoke ./cmd/c3dd
	/tmp/c3dd-smoke -version
	/tmp/c3dd-smoke -addr 127.0.0.1:18321 & echo $$! > /tmp/c3dd-smoke.pid; \
	trap 'kill $$(cat /tmp/c3dd-smoke.pid) 2>/dev/null' EXIT; \
	$(GO) run ./internal/smoketest/daemon -url http://127.0.0.1:18321 > /tmp/c3dd-smoke-result.json; \
	$(GO) run ./cmd/c3dexp -exp table1 -quick -workloads streamcluster -accesses 2000 -json > /tmp/c3dd-smoke-cli.json; \
	cmp /tmp/c3dd-smoke-result.json /tmp/c3dd-smoke-cli.json
	@echo "daemon result bit-identical to c3dexp -json (driven via api.Client)"

# Distributed-campaign gate through the real binaries: two worker daemons plus
# a coordinator, `c3dexp -remote` fanning fig6 out over the fleet. The remote
# bytes must cmp equal to the local run (distribution is invisible), and a
# second identical sweep must be answered from the content-addressed result
# cache — the fleet verifier asserts the hit counters moved instead of jobs.
fleet-smoke:
	$(GO) build -ldflags "$(LDFLAGS)" -o /tmp/c3dd-fleet ./cmd/c3dd
	/tmp/c3dd-fleet -addr 127.0.0.1:18331 & echo $$! > /tmp/c3dd-fleet-w1.pid; \
	/tmp/c3dd-fleet -addr 127.0.0.1:18332 & echo $$! > /tmp/c3dd-fleet-w2.pid; \
	trap 'kill $$(cat /tmp/c3dd-fleet-w1.pid) $$(cat /tmp/c3dd-fleet-w2.pid) $$(cat /tmp/c3dd-fleet-co.pid) 2>/dev/null' EXIT; \
	for i in $$(seq 1 50); do \
		curl -sf 127.0.0.1:18331/healthz >/dev/null && curl -sf 127.0.0.1:18332/healthz >/dev/null && break; sleep 0.2; done; \
	/tmp/c3dd-fleet -coordinator -workers http://127.0.0.1:18331,http://127.0.0.1:18332 -addr 127.0.0.1:18330 & echo $$! > /tmp/c3dd-fleet-co.pid; \
	for i in $$(seq 1 50); do \
		curl -sf 127.0.0.1:18330/healthz >/dev/null && break; sleep 0.2; done; \
	$(GO) run ./cmd/c3dexp -exp fig6 -quick -json > /tmp/c3d-fleet-local.json; \
	$(GO) run ./cmd/c3dexp -exp fig6 -quick -json -remote http://127.0.0.1:18330 > /tmp/c3d-fleet-remote1.json; \
	cmp /tmp/c3d-fleet-local.json /tmp/c3d-fleet-remote1.json; \
	$(GO) run ./cmd/c3dexp -exp fig6 -quick -json -remote http://127.0.0.1:18330 > /tmp/c3d-fleet-remote2.json; \
	cmp /tmp/c3d-fleet-local.json /tmp/c3d-fleet-remote2.json; \
	$(GO) run ./internal/smoketest/fleet -url http://127.0.0.1:18330 -workers 2 -min-hits 1
	@echo "remote fig6 bit-identical to local at 2 workers; repeat sweep served from the result cache"

# Fault-tolerance gate through the real binaries: a campaign over two workers
# running seeded fault plans (transport flaps + hung requests), with the
# coordinator journalling to disk, kill -9'd mid-campaign and restarted over
# the same journal. The driver rides out the outage on client retries and the
# final bytes must cmp equal to a fault-free single-worker baseline — faults
# and crashes cost retries, never correctness.
chaos-smoke:
	$(GO) build -ldflags "$(LDFLAGS)" -o /tmp/c3dd-chaos ./cmd/c3dd
	rm -rf /tmp/c3d-chaos-journal; \
	/tmp/c3dd-chaos -addr 127.0.0.1:18341 -jobs 2 -chaos flaky:7 & echo $$! > /tmp/c3dd-chaos-w1.pid; \
	/tmp/c3dd-chaos -addr 127.0.0.1:18342 -jobs 2 -chaos hang:11 & echo $$! > /tmp/c3dd-chaos-w2.pid; \
	/tmp/c3dd-chaos -addr 127.0.0.1:18343 & echo $$! > /tmp/c3dd-chaos-w3.pid; \
	trap 'kill $$(cat /tmp/c3dd-chaos-w1.pid /tmp/c3dd-chaos-w2.pid /tmp/c3dd-chaos-w3.pid /tmp/c3dd-chaos-co.pid 2>/dev/null) 2>/dev/null' EXIT; \
	for i in $$(seq 1 50); do \
		curl -sf 127.0.0.1:18343/healthz >/dev/null && break; sleep 0.2; done; \
	$(GO) run ./internal/smoketest/chaos -direct -url http://127.0.0.1:18343 > /tmp/c3d-chaos-baseline.txt; \
	for i in $$(seq 1 50); do \
		curl -sf 127.0.0.1:18341/v1/capabilities >/dev/null && curl -sf 127.0.0.1:18342/v1/capabilities >/dev/null && break; sleep 0.2; done; \
	/tmp/c3dd-chaos -coordinator -workers http://127.0.0.1:18341,http://127.0.0.1:18342 -addr 127.0.0.1:18340 \
		-journal /tmp/c3d-chaos-journal -dispatch-timeout 3s -attempts 10 -cooldown 200ms & echo $$! > /tmp/c3dd-chaos-co.pid; \
	for i in $$(seq 1 50); do \
		curl -sf 127.0.0.1:18340/healthz >/dev/null && break; sleep 0.2; done; \
	$(GO) run ./internal/smoketest/chaos -url http://127.0.0.1:18340 > /tmp/c3d-chaos-run.txt & echo $$! > /tmp/c3d-chaos-driver.pid; \
	sleep 3; \
	kill -9 $$(cat /tmp/c3dd-chaos-co.pid) 2>/dev/null; \
	/tmp/c3dd-chaos -coordinator -workers http://127.0.0.1:18341,http://127.0.0.1:18342 -addr 127.0.0.1:18340 \
		-journal /tmp/c3d-chaos-journal -dispatch-timeout 3s -attempts 10 -cooldown 200ms & echo $$! > /tmp/c3dd-chaos-co.pid; \
	wait $$(cat /tmp/c3d-chaos-driver.pid); \
	cmp /tmp/c3d-chaos-baseline.txt /tmp/c3d-chaos-run.txt
	@echo "chaos campaign bytes identical to the fault-free baseline across a coordinator kill -9 + journal resume"

# Workload-spec gate through the real binaries: one embedded preset driven
# through c3dsim (two runs must be bit-identical, and naming the preset with
# -workload must match running its document with -spec), through c3dexp at two
# parallelism levels, and through a two-worker fleet via -remote (the spec
# document travels the wire as params.spec and the workers compile it);
# then the external-trace path: spec → binary → text → ingest → binary must
# be a byte-identical round trip.
spec-smoke:
	$(GO) run ./cmd/c3dsim -spec preset:bursty-tail -accesses 2000 -json > /tmp/c3d-spec-sim1.json
	$(GO) run ./cmd/c3dsim -spec preset:bursty-tail -accesses 2000 -json > /tmp/c3d-spec-sim2.json
	cmp /tmp/c3d-spec-sim1.json /tmp/c3d-spec-sim2.json
	@echo "c3dsim spec runs bit-identical"
	$(GO) run ./cmd/c3dsim -workload bursty-tail -accesses 2000 -json > /tmp/c3d-spec-byname.json
	cmp /tmp/c3d-spec-sim1.json /tmp/c3d-spec-byname.json
	@echo "c3dsim preset by name bit-identical to its spec document"
	$(GO) run ./cmd/c3dexp -exp table1 -quick -spec preset:bursty-tail -accesses 2000 -json -parallel 1 > /tmp/c3d-spec-p1.json
	$(GO) run ./cmd/c3dexp -exp table1 -quick -spec preset:bursty-tail -accesses 2000 -json -parallel 8 > /tmp/c3d-spec-p8.json
	cmp /tmp/c3d-spec-p1.json /tmp/c3d-spec-p8.json
	@echo "spec campaign bit-identical across parallelism levels"
	$(GO) build -ldflags "$(LDFLAGS)" -o /tmp/c3dd-spec ./cmd/c3dd
	/tmp/c3dd-spec -addr 127.0.0.1:18351 & echo $$! > /tmp/c3dd-spec-w1.pid; \
	/tmp/c3dd-spec -addr 127.0.0.1:18352 & echo $$! > /tmp/c3dd-spec-w2.pid; \
	trap 'kill $$(cat /tmp/c3dd-spec-w1.pid) $$(cat /tmp/c3dd-spec-w2.pid) $$(cat /tmp/c3dd-spec-co.pid) 2>/dev/null' EXIT; \
	for i in $$(seq 1 50); do \
		curl -sf 127.0.0.1:18351/healthz >/dev/null && curl -sf 127.0.0.1:18352/healthz >/dev/null && break; sleep 0.2; done; \
	/tmp/c3dd-spec -coordinator -workers http://127.0.0.1:18351,http://127.0.0.1:18352 -addr 127.0.0.1:18350 & echo $$! > /tmp/c3dd-spec-co.pid; \
	for i in $$(seq 1 50); do \
		curl -sf 127.0.0.1:18350/healthz >/dev/null && break; sleep 0.2; done; \
	$(GO) run ./cmd/c3dexp -exp table1 -quick -spec preset:bursty-tail -accesses 2000 -json -remote http://127.0.0.1:18350 > /tmp/c3d-spec-remote.json; \
	cmp /tmp/c3d-spec-p1.json /tmp/c3d-spec-remote.json
	@echo "remote spec campaign bit-identical to local at 2 workers"
	$(GO) run ./cmd/c3dtrace -spec preset:bursty-tail -threads 4 -accesses 500 -summary=false -out /tmp/c3d-spec.c3dt
	$(GO) run ./cmd/c3dtrace -in /tmp/c3d-spec.c3dt -text-out /tmp/c3d-spec.txt
	$(GO) run ./cmd/c3dtrace -ingest /tmp/c3d-spec.txt -out /tmp/c3d-spec-reingested.c3dt
	cmp /tmp/c3d-spec.c3dt /tmp/c3d-spec-reingested.c3dt
	@echo "spec → binary → text → ingest round trip bit-identical"

# Sampled-simulation gate through the real CLI: build c3dexp once (so `go
# run` compile time never pollutes the timing), then let the Go verifier
# drive fig6-quick full vs SMARTS-sampled and assert the three properties
# sampling sells — every full value inside the sampled 95% bars, a decisive
# wall-clock win, and sampled bytes identical across -parallel 1/8 and a
# repeat run. The acceptance target is 5x; the gate demands 2x so CI box
# noise cannot flake it.
sample-smoke:
	$(GO) build -ldflags "$(LDFLAGS)" -o /tmp/c3dexp-sample ./cmd/c3dexp
	$(GO) run ./internal/smoketest/sample -bin /tmp/c3dexp-sample

ci: lint build race bench-test bench-smoke determinism topology-smoke trace-roundtrip fuzz-smoke daemon-smoke fleet-smoke chaos-smoke spec-smoke sample-smoke
