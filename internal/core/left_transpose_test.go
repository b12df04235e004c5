package core

import (
	"math"
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
