package core

import (
	"math"
	"strings"
	"testing"

	sdsio "github.com/systemds/systemds-go/internal/io"
	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/runtime"
)

// compressEngine builds an engine with compression toggled.
func compressEngine(compression bool) *Engine {
	cfg := runtime.DefaultConfig()
	cfg.CompressionEnabled = compression
	return NewEngine(cfg)
}

// lowCardFeatures builds a rows x cols low-cardinality feature matrix (5
// distinct values per column) — the regime compressed linear algebra exists
// for.
func lowCardFeatures(rows, cols int, seed int64) *matrix.MatrixBlock {
	noise := matrix.RandUniform(rows, cols, 0, 1, 1.0, seed)
	out := matrix.NewDense(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			out.Set(r, c, math.Floor(noise.Get(r, c)*5))
		}
	}
	out.RecomputeNNZ()
	return out
}

// lmLoopScript is a 10-epoch gradient-descent linear regression loop: the
// loop body re-reads X twice per iteration (X %*% w and t(X) %*% r), which is
// exactly the reuse scope the compression decision site fires for.
const lmLoopScript = `w = matrix(0, rows=ncol(X), cols=1)
for (i in 1:10) {
  q = X %*% w
  g = t(X) %*% (q - y)
  w = w - 0.0000001 * g
}
s = sum(w)`

// neLoopScript is a 10-epoch normal-equation linear regression loop: every
// epoch recomputes the Gram matrix t(X) %*% X (the tsmm rewrite catches the
// pattern) and t(X) %*% y, so on the compressed path both come straight off
// the column-group dictionaries and X never materializes.
const neLoopScript = `w = matrix(0, rows=ncol(X), cols=1)
for (i in 1:10) {
  G = t(X) %*% X
  b = t(X) %*% y
  R = G + diag(matrix(0.001, rows=ncol(X), cols=1))
  w = solve(R, b)
}
s = sum(w)`

// TestCompressedNormalEquationLm is the acceptance test of deep compressed
// execution: a 10-epoch normal-equation lm loop over a 2k x 200
// low-cardinality matrix runs with at least one compression and exactly zero
// decompressions — the Gram matrix comes from the compressed TSMM kernel
// (counts-weighted dictionary self and cross products), t(X) %*% y from the
// vector-matrix kernel after the left-transpose rewrite — and matches the
// uncompressed CP run within 1e-9.
func TestCompressedNormalEquationLm(t *testing.T) {
	x := lowCardFeatures(2000, 200, 101)
	y := matrix.RandUniform(2000, 1, -1, 1, 1.0, 102)
	inputs := map[string]any{"X": x, "y": y}
	outputs := []string{"w", "s"}

	comp, cstats, err := compressEngine(true).Execute(neLoopScript, inputs, outputs)
	if err != nil {
		t.Fatalf("compressed run failed: %v", err)
	}
	plain, _, err := compressEngine(false).Execute(neLoopScript, inputs, outputs)
	if err != nil {
		t.Fatalf("uncompressed run failed: %v", err)
	}

	if cstats.CompressStats.Compressions < 1 {
		t.Errorf("compressions = %d, want >= 1", cstats.CompressStats.Compressions)
	}
	if cstats.CompressStats.Decompressions != 0 {
		t.Errorf("decompressions = %d, want 0 on the normal-equation hot path (by op: %v)",
			cstats.CompressStats.Decompressions, cstats.CompressStats.DecompressionsByOp)
	}
	if len(cstats.CompressStats.DecompressionsByOp) != 0 {
		t.Errorf("per-opcode decompression map not empty: %v", cstats.CompressStats.DecompressionsByOp)
	}
	// the Gram matrix ran on the compressed TSMM kernel, recorded with its
	// group-type histogram
	foundCTSMM := false
	for _, pr := range cstats.PlanStats {
		if pr.Op == "tsmm" && strings.HasPrefix(pr.Plan, "ctsmm:") {
			foundCTSMM = true
		}
	}
	if !foundCTSMM {
		t.Errorf("no ctsmm plan record in PlanStats: %+v", cstats.PlanStats)
	}

	cw, pw := comp["w"].(*matrix.MatrixBlock), plain["w"].(*matrix.MatrixBlock)
	for r := 0; r < pw.Rows(); r++ {
		if re := relErr(cw.Get(r, 0), pw.Get(r, 0)); re > 1e-9 {
			t.Fatalf("compressed w row %d differs: %v vs %v (rel err %g)", r, cw.Get(r, 0), pw.Get(r, 0), re)
		}
	}
	if re := relErr(comp["s"].(float64), plain["s"].(float64)); re > 1e-9 {
		t.Errorf("sum differs: rel err %g", re)
	}
}

// TestDecompressionsAttributedPerOpcode drives a workload that is NOT fully
// on the compressed path (a cellwise add against an incompressible matrix has
// no compressed kernel) and asserts the fallback decompression is counted
// and attributed: the per-opcode map totals exactly the decompression count,
// and memoization keeps the charge at one despite repeated reads.
func TestDecompressionsAttributedPerOpcode(t *testing.T) {
	x := lowCardFeatures(2000, 200, 121)
	n := matrix.RandUniform(2000, 200, 0, 1, 1.0, 122)
	script := `acc = 0
for (i in 1:3) {
  Z = X + N
  acc = acc + sum(Z) + sum(X %*% matrix(1, rows=ncol(X), cols=1))
}`
	_, stats, err := compressEngine(true).Execute(script, map[string]any{"X": x, "N": n}, []string{"acc"})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if stats.CompressStats.Compressions < 1 {
		t.Fatalf("compression did not fire (stats %+v)", stats.CompressStats)
	}
	if stats.CompressStats.Decompressions != 1 {
		t.Errorf("decompressions = %d, want exactly 1 (memoized across 3 epochs), by op: %v",
			stats.CompressStats.Decompressions, stats.CompressStats.DecompressionsByOp)
	}
	var total int64
	for op, v := range stats.CompressStats.DecompressionsByOp {
		if op == "" {
			t.Errorf("empty opcode key in per-opcode map: %v", stats.CompressStats.DecompressionsByOp)
		}
		total += v
	}
	if total != stats.CompressStats.Decompressions {
		t.Errorf("per-opcode map totals %d, want %d: %v",
			total, stats.CompressStats.Decompressions, stats.CompressStats.DecompressionsByOp)
	}
}

// TestCompressedLoopAcceptance is the acceptance test of the compression
// subsystem: an iterative script over a low-cardinality matrix runs with
// compression auto-selected by the planner, the stats show at least one
// compression and zero decompressions on the loop hot path, and the results
// match the uncompressed run within 1e-9.
func TestCompressedLoopAcceptance(t *testing.T) {
	x := lowCardFeatures(2000, 200, 21)
	y := matrix.RandUniform(2000, 1, -1, 1, 1.0, 22)
	inputs := map[string]any{"X": x, "y": y}
	outputs := []string{"w", "s"}

	comp, cstats, err := compressEngine(true).Execute(lmLoopScript, inputs, outputs)
	if err != nil {
		t.Fatalf("compressed run failed: %v", err)
	}
	plain, pstats, err := compressEngine(false).Execute(lmLoopScript, inputs, outputs)
	if err != nil {
		t.Fatalf("uncompressed run failed: %v", err)
	}

	// the planner auto-selected compression for X and the loop ran on it
	if cstats.CompressStats.Compressions < 1 {
		t.Errorf("compressions = %d, want >= 1", cstats.CompressStats.Compressions)
	}
	if cstats.CompressStats.Decompressions != 0 {
		t.Errorf("decompressions = %d, want 0 on the loop hot path", cstats.CompressStats.Decompressions)
	}
	if cstats.CompressStats.CompressedOps < 20 {
		t.Errorf("compressed ops = %d, want >= 20 (MV and VM per epoch)", cstats.CompressStats.CompressedOps)
	}
	if cstats.CompressStats.BytesCompressed >= cstats.CompressStats.BytesUncompressed {
		t.Errorf("compressed bytes %d not smaller than uncompressed %d",
			cstats.CompressStats.BytesCompressed, cstats.CompressStats.BytesUncompressed)
	}
	// a compress plan record reports the achieved size next to the estimate
	foundRecord := false
	for _, pr := range cstats.PlanStats {
		if pr.Op == "compress" && pr.Plan != "reject" {
			foundRecord = true
			if pr.ActualBytes <= 0 {
				t.Errorf("compress plan record has actual bytes %d", pr.ActualBytes)
			}
		}
	}
	if !foundRecord {
		t.Errorf("no compress plan record in PlanStats")
	}
	// the uncompressed engine never compressed
	if pstats.CompressStats.Compressions != 0 || pstats.CompressStats.CompressedOps != 0 {
		t.Errorf("uncompressed run shows compression activity: %+v", pstats.CompressStats)
	}

	// results match within 1e-9 relative error per cell
	cw, pw := comp["w"].(*matrix.MatrixBlock), plain["w"].(*matrix.MatrixBlock)
	for r := 0; r < pw.Rows(); r++ {
		if re := relErr(cw.Get(r, 0), pw.Get(r, 0)); re > 1e-9 {
			t.Fatalf("compressed w row %d differs: %v vs %v (rel err %g)", r, cw.Get(r, 0), pw.Get(r, 0), re)
		}
	}
	if re := relErr(comp["s"].(float64), plain["s"].(float64)); re > 1e-9 {
		t.Errorf("sum differs: rel err %g", re)
	}
}

// TestCompressedLoopBitwiseStable asserts that two compressed runs of the
// same script produce bit-identical results: sampling, encoding and the
// compressed kernels are all deterministic.
func TestCompressedLoopBitwiseStable(t *testing.T) {
	x := lowCardFeatures(1500, 120, 31)
	y := matrix.RandUniform(1500, 1, -1, 1, 1.0, 32)
	inputs := map[string]any{"X": x, "y": y}

	run := func() *matrix.MatrixBlock {
		t.Helper()
		res, stats, err := compressEngine(true).Execute(lmLoopScript, inputs, []string{"w"})
		if err != nil {
			t.Fatalf("run failed: %v", err)
		}
		if stats.CompressStats.Compressions < 1 {
			t.Fatalf("compression did not fire (stats %+v)", stats.CompressStats)
		}
		return res["w"].(*matrix.MatrixBlock)
	}
	w1, w2 := run(), run()
	for r := 0; r < w1.Rows(); r++ {
		if w1.Get(r, 0) != w2.Get(r, 0) {
			t.Fatalf("row %d differs across runs: %v vs %v", r, w1.Get(r, 0), w2.Get(r, 0))
		}
	}
}

// TestCompressionRejectedForIncompressibleData drives the runtime planner's
// reject path: continuous noise has no low-cardinality or run structure, so
// the sample-based planner rejects and the loop runs uncompressed — with
// identical results.
func TestCompressionRejectedForIncompressibleData(t *testing.T) {
	x := matrix.RandUniform(2000, 200, 0, 1, 1.0, 41)
	y := matrix.RandUniform(2000, 1, -1, 1, 1.0, 42)
	inputs := map[string]any{"X": x, "y": y}

	comp, cstats, err := compressEngine(true).Execute(lmLoopScript, inputs, []string{"w"})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if cstats.CompressStats.Compressions != 0 {
		t.Errorf("compressions = %d, want 0 for incompressible data", cstats.CompressStats.Compressions)
	}
	if cstats.CompressStats.Rejected < 1 {
		t.Errorf("rejected = %d, want >= 1", cstats.CompressStats.Rejected)
	}
	plain, _, err := compressEngine(false).Execute(lmLoopScript, inputs, []string{"w"})
	if err != nil {
		t.Fatalf("uncompressed run failed: %v", err)
	}
	if !comp["w"].(*matrix.MatrixBlock).Equals(plain["w"].(*matrix.MatrixBlock), 0) {
		t.Errorf("rejected-compression run should be bitwise equal to the plain run")
	}
}

// TestCompressionSiteNoFireBelowThreshold asserts the compile-time half of
// the decision: operands below the size floor never reach the runtime
// planner (no compression, no rejection — the site lowered to an alias).
func TestCompressionSiteNoFireBelowThreshold(t *testing.T) {
	x := lowCardFeatures(100, 20, 51) // 16 KB << CompressMinBytes
	y := matrix.RandUniform(100, 1, -1, 1, 1.0, 52)
	_, stats, err := compressEngine(true).Execute(lmLoopScript, map[string]any{"X": x, "y": y}, []string{"w"})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if stats.CompressStats.Compressions != 0 || stats.CompressStats.Rejected != 0 {
		t.Errorf("small operand reached the runtime planner: %+v", stats.CompressStats)
	}
}

// TestExplainShowsCompressionSite asserts the decision site is visible in the
// compiled plan.
func TestExplainShowsCompressionSite(t *testing.T) {
	x := lowCardFeatures(2000, 200, 61)
	y := matrix.RandUniform(2000, 1, -1, 1, 1.0, 62)
	explain, err := compressEngine(true).ExplainPlan(lmLoopScript, map[string]any{"X": x, "y": y})
	if err != nil {
		t.Fatalf("explain failed: %v", err)
	}
	if !strings.Contains(explain, "Compress") {
		t.Errorf("explain output lacks the compression site:\n%s", explain)
	}
}

// TestExplainTagsCompressedKernels asserts EXPLAIN surfaces the compressed
// execution path per operator: the Gram matrix of the normal-equation loop is
// tagged with the compressed TSMM kernel (the compiler's cross-DAG tracking
// marks the loop-body read of X as compressed).
func TestExplainTagsCompressedKernels(t *testing.T) {
	x := lowCardFeatures(2000, 200, 131)
	y := matrix.RandUniform(2000, 1, -1, 1, 1.0, 132)
	explain, err := compressEngine(true).ExplainPlan(neLoopScript, map[string]any{"X": x, "y": y})
	if err != nil {
		t.Fatalf("explain failed: %v", err)
	}
	if !strings.Contains(explain, "kernel=ctsmm") {
		t.Errorf("explain output lacks the compressed TSMM kernel tag:\n%s", explain)
	}
}

// TestCompressedValueMapAndAggregates drives the dictionary-only update and
// direct-aggregate paths end to end: scalar ops and cellwise unaries on the
// compressed loop operand stay compressed, aggregates reduce over the
// dictionaries, and nothing on the path decompresses.
func TestCompressedValueMapAndAggregates(t *testing.T) {
	x := lowCardFeatures(2000, 200, 71)
	script := `acc = 0
for (i in 1:5) {
  Y = X * 2
  Z = abs(Y - 3)
  acc = acc + sum(Z) + max(X) + mean(Y)
  cs = colSums(Z)
  rs = rowSums(Y)
  acc = acc + sum(cs) + sum(rs)
}`
	inputs := map[string]any{"X": x}
	comp, cstats, err := compressEngine(true).Execute(script, inputs, []string{"acc"})
	if err != nil {
		t.Fatalf("compressed run failed: %v", err)
	}
	plain, _, err := compressEngine(false).Execute(script, inputs, []string{"acc"})
	if err != nil {
		t.Fatalf("plain run failed: %v", err)
	}
	if cstats.CompressStats.Compressions < 1 {
		t.Errorf("compressions = %d, want >= 1", cstats.CompressStats.Compressions)
	}
	if cstats.CompressStats.Decompressions != 0 {
		t.Errorf("decompressions = %d, want 0: scalar/unary/agg should stay compressed", cstats.CompressStats.Decompressions)
	}
	if re := relErr(comp["acc"].(float64), plain["acc"].(float64)); re > 1e-9 {
		t.Errorf("acc differs: %v vs %v (rel err %g)", comp["acc"], plain["acc"], re)
	}
}

// TestCompressedSinksDecompressTransparently asserts the "nothing breaks"
// half of the fallback policy at every sink: a compressed loop operand can be
// requested as a script output, printed, written to a file, and transposed
// for operators without a compressed kernel.
func TestCompressedSinksDecompressTransparently(t *testing.T) {
	x := lowCardFeatures(2000, 200, 81)
	dir := t.TempDir()
	out := dir + "/x.csv"
	script := `acc = 0
for (i in 1:3) {
  S = t(X)
  E = abs(S)
  acc = acc + sum(E) + sum(X %*% matrix(1, rows=ncol(X), cols=1))
}
print(nrow(X))
write(X, "` + out + `", format="csv")`
	res, stats, err := compressEngine(true).Execute(script, map[string]any{"X": x}, []string{"X", "acc"})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if stats.CompressStats.Compressions < 1 {
		t.Fatalf("compression did not fire (stats %+v)", stats.CompressStats)
	}
	// the compressed X came back as a plain matrix output, bit-identical
	got := res["X"].(*matrix.MatrixBlock)
	if !got.Equals(x, 0) {
		t.Errorf("compressed output decompressed incorrectly")
	}
	// the write sink produced the file
	back, err := sdsio.ReadMatrixCSV(out, sdsio.DefaultCSVOptions())
	if err != nil {
		t.Fatalf("written CSV unreadable: %v", err)
	}
	if back.Rows() != x.Rows() || back.Cols() != x.Cols() {
		t.Errorf("written CSV is %dx%d, want %dx%d", back.Rows(), back.Cols(), x.Rows(), x.Cols())
	}
	// the unary over t(X) matches the plain run
	plain, _, err := compressEngine(false).Execute(script, map[string]any{"X": x}, []string{"acc"})
	if err != nil {
		t.Fatalf("plain run failed: %v", err)
	}
	if re := relErr(res["acc"].(float64), plain["acc"].(float64)); re > 1e-9 {
		t.Errorf("acc differs: %v vs %v", res["acc"], plain["acc"])
	}
}

// TestCompressionSiteRecompilesAfterReassignment asserts stale compile-time
// characteristics do not pin the decision: an input below the size floor that
// grows above it before the loop still compresses, because the site for a
// reassigned variable compiles size-unknown and re-decides against live
// sizes.
func TestCompressionSiteRecompilesAfterReassignment(t *testing.T) {
	x := lowCardFeatures(100, 20, 91) // 16 KB input, below CompressMinBytes
	script := `X = rbind(X, X)
X = rbind(X, X)
X = rbind(X, X)
X = rbind(X, X)
X = rbind(X, X)
acc = 0
for (i in 1:3) {
  acc = acc + sum(X %*% matrix(1, rows=ncol(X), cols=1))
}`
	_, stats, err := compressEngine(true).Execute(script, map[string]any{"X": x}, []string{"acc"})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	// 100 -> 3200 rows x 20 cols = 512 KB: the site must fire on live sizes
	if stats.CompressStats.Compressions < 1 {
		t.Errorf("compression did not fire for the grown operand (stats %+v)", stats.CompressStats)
	}
}

// TestCompressionSiteHandlesConditionalReassignment asserts that a variable
// conditionally redefined before the loop is treated as stale: the site
// compiles size-unknown and fires against the live (grown) size.
func TestCompressionSiteHandlesConditionalReassignment(t *testing.T) {
	x := lowCardFeatures(100, 20, 95) // below the size floor at compile time
	script := `c = 1
if (c == 1) {
  X = rbind(X, X)
  X = rbind(X, X)
  X = rbind(X, X)
  X = rbind(X, X)
  X = rbind(X, X)
}
acc = 0
for (i in 1:3) {
  acc = acc + sum(X %*% matrix(1, rows=ncol(X), cols=1))
}`
	_, stats, err := compressEngine(true).Execute(script, map[string]any{"X": x}, []string{"acc"})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if stats.CompressStats.Compressions < 1 {
		t.Errorf("compression did not fire for the conditionally grown operand (stats %+v)", stats.CompressStats)
	}
}

// TestExplicitCompressCall asserts the user-facing form: compress(X) without
// a reuse argument fires on known-size data (the sample planner still guards
// against incompressible inputs).
func TestExplicitCompressCall(t *testing.T) {
	x := lowCardFeatures(2000, 200, 97)
	script := `X = compress(X)
s = sum(X)`
	res, stats, err := compressEngine(true).Execute(script, map[string]any{"X": x}, []string{"s"})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if stats.CompressStats.Compressions != 1 {
		t.Errorf("explicit compress(X) did not compress (stats %+v)", stats.CompressStats)
	}
	if re := relErr(res["s"].(float64), matrix.Sum(x, 1)); re > 1e-9 {
		t.Errorf("sum over explicitly compressed X differs: rel err %g", re)
	}
}

// TestForOverCompressedMatrixMatchesPlain asserts a for loop over a matrix
// the compression site compressed iterates its cells like the plain run: the
// loop body's X %*% v runs on the compressed groups, the iterable reads X
// through the one local-matrix contract, and the result is bitwise equal
// with compression off and on.
func TestForOverCompressedMatrixMatchesPlain(t *testing.T) {
	x := lowCardFeatures(2000, 20, 141) // 320 KB, above CompressMinBytes
	script := `s = 0
t = 0
v = matrix(1, rows=ncol(X), cols=1)
for (i in 1:2) {
  s = s + sum(X %*% v)
  for (e in X) {
    t = t + e
  }
}
r = s + t`
	inputs := map[string]any{"X": x}
	comp, cstats, err := compressEngine(true).Execute(script, inputs, []string{"r"})
	if err != nil {
		t.Fatalf("compressed run failed: %v", err)
	}
	plain, _, err := compressEngine(false).Execute(script, inputs, []string{"r"})
	if err != nil {
		t.Fatalf("plain run failed: %v", err)
	}
	if cstats.CompressStats.Compressions < 1 || cstats.CompressStats.CompressedOps < 1 {
		t.Errorf("X %%*%% v did not run compressed (stats %+v)", cstats.CompressStats)
	}
	if got, want := comp["r"].(float64), plain["r"].(float64); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("compressed r = %v, plain r = %v", got, want)
	}
}
