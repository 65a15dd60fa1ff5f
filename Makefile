GO ?= go

.PHONY: build test vet lint fmt check bench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint runs the repository's own static-analysis suite (cmd/avdlint):
# determinism contracts, snapshot completeness and Result/codec coverage.
# Exit status 2 on any unsuppressed finding; see DESIGN.md §9 for the
# //avdlint:allow / //avdlint:derived / //avdlint:ephemeral suppression
# syntax. `make lint LINTFLAGS='-v'` also prints suppressed findings.
lint:
	$(GO) run ./cmd/avdlint $(LINTFLAGS) ./...

fmt:
	gofmt -l -w .

# bench runs one workload of the repository benchmark (BENCHMARK.json,
# benchmark/README.md) the way the driver does: `make bench W=pbft-fig2`.
# Workloads: pbft-fig2, raft-flap, pbft-faults-coverage,
# pbft-sharded-durable. By-products stay under the git-ignored
# .bench_build/.
bench:
	bash benchmark/run.sh --workload $(W) --seed 1 --seconds 30 --trace 0

check: build vet lint test
