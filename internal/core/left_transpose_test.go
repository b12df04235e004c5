package core

import (
	"math"
	"os"
	"strings"
	"testing"

	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/runtime"
)

// TestLeftTransposeMatVecBitwise runs t(X) %*% v through the engine, where
// the left-transpose rewrite plans it as t(t(v) %*% X), and compares it bit
// for bit with the materialized-transpose product for dense and sparse X.
func TestLeftTransposeMatVecBitwise(t *testing.T) {
	for _, tc := range []struct {
		name     string
		sparsity float64
	}{
		{"dense", 1.0},
		{"sparse", 0.05},
	} {
		t.Run(tc.name, func(t *testing.T) {
			x := matrix.RandUniform(600, 80, -1, 1, tc.sparsity, 11)
			if x.IsSparse() != (tc.sparsity < 1) {
				t.Fatalf("input representation sparse=%v, want %v", x.IsSparse(), tc.sparsity < 1)
			}
			v := matrix.RandUniform(600, 1, -1, 1, 1.0, 12)
			want, err := matrix.Multiply(matrix.Transpose(x), v, 1)
			if err != nil {
				t.Fatal(err)
			}
			res, _, err := NewEngine(runtime.DefaultConfig()).Execute(`g = t(X) %*% v`,
				map[string]any{"X": x, "v": v}, []string{"g"})
			if err != nil {
				t.Fatal(err)
			}
			got := res["g"].(*matrix.MatrixBlock)
			if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
				t.Fatalf("result is %dx%d, want %dx%d", got.Rows(), got.Cols(), want.Rows(), want.Cols())
			}
			for r := 0; r < want.Rows(); r++ {
				if math.Float64bits(got.Get(r, 0)) != math.Float64bits(want.Get(r, 0)) {
					t.Fatalf("row %d: %v, want %v (bitwise)", r, got.Get(r, 0), want.Get(r, 0))
				}
			}
		})
	}
}

// TestCompressedLeftTransposeMatrixRHS: a loop computing t(X) %*% B with a
// 5-column B over compressed X runs on the transposed matrix-RHS kernel
// (t(t(B) %*% X) after the rewrite) and never decompresses X.
func TestCompressedLeftTransposeMatrixRHS(t *testing.T) {
	x := lowCardFeatures(2000, 200, 141)
	b := matrix.RandUniform(2000, 5, -1, 1, 1.0, 142)
	script := `acc = 0
for (i in 1:5) {
  G = t(X) %*% (B * i)
  acc = acc + sum(G) + sum(X %*% matrix(1, rows=ncol(X), cols=1))
}`
	inputs := map[string]any{"X": x, "B": b}
	comp, cstats, err := compressEngine(true).Execute(script, inputs, []string{"acc"})
	if err != nil {
		t.Fatalf("compressed run failed: %v", err)
	}
	if cstats.CompressStats.Compressions < 1 {
		t.Fatalf("compression did not fire (stats %+v)", cstats.CompressStats)
	}
	if cstats.CompressStats.Decompressions != 0 {
		t.Errorf("decompressions = %d (%v), want 0", cstats.CompressStats.Decompressions,
			cstats.CompressStats.DecompressionsByOp)
	}
	found := false
	for _, pr := range cstats.PlanStats {
		if pr.Op == "ba+*" && strings.HasPrefix(pr.Plan, "cmm:") {
			found = true
		}
	}
	if !found {
		t.Errorf("no compressed matrix-RHS plan record in %v", cstats.PlanStats)
	}
	plain, _, err := compressEngine(false).Execute(script, inputs, []string{"acc"})
	if err != nil {
		t.Fatalf("uncompressed run failed: %v", err)
	}
	if re := relErr(comp["acc"].(float64), plain["acc"].(float64)); re > 1e-9 {
		t.Errorf("acc differs: %v vs %v (rel err %g)", comp["acc"], plain["acc"], re)
	}
}

// TestExplainTagsVectorKernels: in one lm gradient step, X %*% w runs on the
// matrix-vector kernel and t(X) %*% (q - y), planned as t(t(q - y) %*% X),
// on the vector-matrix kernel — and EXPLAIN names both with the predicate
// the runtime dispatches on, not by FLOPs alone (X %*% w is above the tiled
// crossover).
func TestExplainTagsVectorKernels(t *testing.T) {
	cfg := runtime.DefaultConfig()
	cfg.FusionDisabled = true // keep the two products as separate operators
	x := matrix.RandUniform(20000, 200, 0, 5, 1.0, 151)
	y := matrix.RandUniform(20000, 1, -1, 1, 1.0, 152)
	w := matrix.RandUniform(200, 1, -1, 1, 1.0, 153)
	step := `q = X %*% w
g = t(X) %*% (q - y)
w2 = w - 0.0000001 * g`
	explain, err := NewEngine(cfg).ExplainPlan(step, map[string]any{"X": x, "y": y, "w": w})
	if err != nil {
		t.Fatal(err)
	}
	if 2*20000*200 < matrix.TiledGEMMCrossoverFLOPs {
		t.Fatal("X %*% w no longer exceeds the tiled crossover")
	}
	for _, tag := range []string{"kernel=mv", "kernel=vm"} {
		if !strings.Contains(explain, tag) {
			t.Errorf("EXPLAIN misses %s:\n%s", tag, explain)
		}
	}
	if strings.Contains(explain, "kernel=tiled") {
		t.Errorf("EXPLAIN tags a vector product as tiled:\n%s", explain)
	}
}

// TestLmTraceVectorKernelsBitwise runs scripts/lm_trace.dml end to end on the
// vector kernels (at 1 and 3 threads) and on the forced simple GEMM loop:
// s must agree bit for bit.
func TestLmTraceVectorKernelsBitwise(t *testing.T) {
	src, err := os.ReadFile("../../scripts/lm_trace.dml")
	if err != nil {
		t.Fatal(err)
	}
	run := func(kern matrix.GEMMKernel, threads int) float64 {
		prev := matrix.SetGEMMKernel(kern)
		defer matrix.SetGEMMKernel(prev)
		cfg := runtime.DefaultConfig()
		cfg.Parallelism = threads
		res, _, err := NewEngine(cfg).Execute(string(src), nil, []string{"s"})
		if err != nil {
			t.Fatal(err)
		}
		return res["s"].(float64)
	}
	want := run(matrix.GEMMSimple, 1)
	for _, threads := range []int{1, 3} {
		if got := run(matrix.GEMMAuto, threads); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("threads=%d: s = %v on the vector kernels, %v on the simple kernel", threads, got, want)
		}
	}
}
