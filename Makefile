GO ?= go
SHELL := /bin/bash

.PHONY: all build vet lint test race bench bench-all trace-check

all: lint build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static contract checks: go vet plus sysdslint, the in-repo analyzer suite
# enforcing the determinism, layering, and concurrency contracts (maporder,
# nofma, threadplumb, layering, goroutineerr; see DESIGN.md "Enforced
# invariants"). Suppressions require a written //sysds:ok(<analyzer>): reason.
lint: vet
	$(GO) run ./cmd/sysdslint ./...

test:
	$(GO) test ./...

# Race-enabled run of the full module (bufferpool, paramserv, frame and
# lineage included — nothing is skipped), followed by the compressed
# lm-loop determinism gate run twice in one process (-count=2 compares
# fingerprints across invocations via package state), and a bench smoke that
# drives the tiled GEMM engine's multi-threaded row-panel workers, the
# matrix-vector and vector-matrix kernels, plus the deep compressed kernels
# (TSMM, matrix right-hand side, partitioned dist MV) under the race detector.
race:
	$(GO) test -race ./...
	$(GO) test -race -run TestCompressedLmLoopDeterminism -count=2 ./internal/core/
	$(GO) test -race -bench 'KernelGEMMTiled512|KernelMultiplyAccTiled|KernelMatVec|KernelVecMat|CompressedTSMM$$|CompressedMMDense$$|CompressedDistMV' -benchtime=1x -run '^$$' .

# Observability acceptance gate: run the traced lm-loop scenario end to end
# (distributed backend forced by a small memory budget, compression site
# planted) with -trace and -stats, then validate the exported Chrome trace —
# well-formed JSON, resolvable parents, strict per-lane nesting, instruction
# spans covering >= 90% of the run span — and reconcile the heavy-hitter
# footer against the trace within 20%.
trace-check:
	$(GO) run ./cmd/sysds -f scripts/lm_trace.dml -compress -distributed -mem-budget 65536 \
		-trace /tmp/sysds-trace.json -stats -print s > /tmp/sysds-stats.txt
	$(GO) run ./cmd/tracecheck -trace /tmp/sysds-trace.json -stats /tmp/sysds-stats.txt

# Compressed-vs-dense MV/TSMM/matrix-RHS kernels (plus the partitioned dist
# executor), planner-vs-forced matmult strategies, fused-vs-unfused,
# kernel-parallelism, tiled-vs-simple GEMM/TSMM/MultiplyAcc and the
# matrix-vector/vector-matrix benchmarks with allocation stats, plus the
# adaptive-runtime pairs (cold-vs-warm cross-run lineage reuse,
# uncalibrated-vs-calibrated planning); the parsed results land in $(BENCH_OUT)
# (e.g. `make bench BENCH_OUT=BENCH_new.json`). The compressed and lineage
# benchmarks additionally report databytes/op (bytes of matrix representation
# streamed or spilled per operation), the dense kernel benchmarks report
# gflops and the vector kernels gb/s.
BENCH_OUT ?= BENCH.json

bench:
	set -o pipefail; $(GO) test -bench 'Compressed|LoopEpoch|MatMultStrategy|Fused|Unfused|MMChain|KernelParallel|KernelGEMM|KernelTSMM|KernelMultiplyAcc|KernelMatVec|KernelVecMat|LineageReuse|CalibrationDelta' -benchmem -timeout 30m -run '^$$' . | $(GO) run ./cmd/benchjson -out $(BENCH_OUT)

# Full benchmark sweep (single iteration per benchmark).
bench-all:
	$(GO) test -bench . -benchtime=1x -run '^$$' .
