// Benchmarks regenerating the paper's evaluation (Figure 5(a)-(d)) and the
// ablation experiments of DESIGN.md, one benchmark family per figure. The
// testing.B benchmarks run at a reduced scale so `go test -bench=.` finishes
// in minutes; cmd/sysdsbench runs the same harness at the small or paper
// scale and prints the full series.
package systemds_test

import (
	"fmt"
	"testing"

	systemds "github.com/systemds/systemds-go"
	"github.com/systemds/systemds-go/internal/baselines"
	"github.com/systemds/systemds-go/internal/compress"
	"github.com/systemds/systemds-go/internal/core"
	"github.com/systemds/systemds-go/internal/dist"
	"github.com/systemds/systemds-go/internal/experiments"
	"github.com/systemds/systemds-go/internal/hops"
	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/paramserv"
	"github.com/systemds/systemds-go/internal/runtime"
	"github.com/systemds/systemds-go/internal/types"
)

// benchScale is the data size used by the benchmarks.
var benchScale = experiments.TinyScale()

// --- Figure 5(a): Baselines Dense -----------------------------------------

func benchmarkFig5aSystem(b *testing.B, run func(k int) error) {
	for _, k := range benchScale.Ks {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := run(k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func denseWorkloadData(b *testing.B) (x, y *matrix.MatrixBlock) {
	b.Helper()
	return matrix.SyntheticRegression(benchScale.Rows, benchScale.Cols, 1.0, 101)
}

func sparseWorkloadData(b *testing.B) (x, y *matrix.MatrixBlock) {
	b.Helper()
	return matrix.SyntheticRegression(benchScale.Rows, benchScale.Cols, 0.1, 102)
}

func lambdaValues(k int) []float64 {
	out := make([]float64, k)
	for i := range out {
		out[i] = float64(i+1) / 1000
	}
	return out
}

func BenchmarkFig5aBaselinesDenseTF(b *testing.B) {
	x, y := denseWorkloadData(b)
	benchmarkFig5aSystem(b, func(k int) error {
		_, err := baselines.RunHyperParameterWorkload(baselines.Naive, x, y, lambdaValues(k), 0)
		return err
	})
}

func BenchmarkFig5aBaselinesDenseTFG(b *testing.B) {
	x, y := denseWorkloadData(b)
	benchmarkFig5aSystem(b, func(k int) error {
		_, err := baselines.RunHyperParameterWorkload(baselines.GraphCSE, x, y, lambdaValues(k), 0)
		return err
	})
}

func BenchmarkFig5aBaselinesDenseJulia(b *testing.B) {
	x, y := denseWorkloadData(b)
	benchmarkFig5aSystem(b, func(k int) error {
		_, err := baselines.RunHyperParameterWorkload(baselines.Eager, x, y, lambdaValues(k), 0)
		return err
	})
}

func BenchmarkFig5aBaselinesDenseSysDS(b *testing.B) {
	dir, xPath, yPath := figureFiles(b, 1.0, 103)
	benchmarkFig5aSystem(b, func(k int) error {
		_, _, err := experiments.RunSysDSWorkload(dir, xPath, yPath, k, false)
		return err
	})
}

func BenchmarkFig5aBaselinesDenseSysDSBLAS(b *testing.B) {
	dir, xPath, yPath := figureFiles(b, 1.0, 104)
	prev := matrix.SetGEMMKernel(matrix.GEMMTiled)
	defer matrix.SetGEMMKernel(prev)
	benchmarkFig5aSystem(b, func(k int) error {
		_, _, err := experiments.RunSysDSWorkload(dir, xPath, yPath, k, false)
		return err
	})
}

// figureFiles materializes the CSV inputs of the end-to-end workload.
func figureFiles(b *testing.B, sparsity float64, seed int64) (dir, xPath, yPath string) {
	b.Helper()
	dir = b.TempDir()
	var err error
	xPath, yPath, err = experiments.PrepareWorkloadFiles(dir, benchScale.Rows, benchScale.Cols, sparsity, seed)
	if err != nil {
		b.Fatal(err)
	}
	return dir, xPath, yPath
}

// --- Figure 5(b): Baselines Sparse -----------------------------------------

func BenchmarkFig5bBaselinesSparseTF(b *testing.B) {
	x, y := sparseWorkloadData(b)
	benchmarkFig5aSystem(b, func(k int) error {
		_, err := baselines.RunHyperParameterWorkload(baselines.Naive, x, y, lambdaValues(k), 0)
		return err
	})
}

func BenchmarkFig5bBaselinesSparseTFG(b *testing.B) {
	x, y := sparseWorkloadData(b)
	benchmarkFig5aSystem(b, func(k int) error {
		_, err := baselines.RunHyperParameterWorkload(baselines.GraphCSE, x, y, lambdaValues(k), 0)
		return err
	})
}

func BenchmarkFig5bBaselinesSparseJulia(b *testing.B) {
	x, y := sparseWorkloadData(b)
	benchmarkFig5aSystem(b, func(k int) error {
		_, err := baselines.RunHyperParameterWorkload(baselines.Eager, x, y, lambdaValues(k), 0)
		return err
	})
}

func BenchmarkFig5bBaselinesSparseSysDS(b *testing.B) {
	dir, xPath, yPath := figureFiles(b, 0.1, 105)
	benchmarkFig5aSystem(b, func(k int) error {
		_, _, err := experiments.RunSysDSWorkload(dir, xPath, yPath, k, false)
		return err
	})
}

// --- Figure 5(c): Reuse Dense ----------------------------------------------

func BenchmarkFig5cReuseDenseOff(b *testing.B) {
	dir, xPath, yPath := figureFiles(b, 1.0, 106)
	benchmarkFig5aSystem(b, func(k int) error {
		_, _, err := experiments.RunSysDSWorkload(dir, xPath, yPath, k, false)
		return err
	})
}

func BenchmarkFig5cReuseDenseOn(b *testing.B) {
	dir, xPath, yPath := figureFiles(b, 1.0, 107)
	benchmarkFig5aSystem(b, func(k int) error {
		_, _, err := experiments.RunSysDSWorkload(dir, xPath, yPath, k, true)
		return err
	})
}

// --- Figure 5(d): Reuse Sparse over input size -----------------------------

func BenchmarkFig5dReuseSparse(b *testing.B) {
	for _, rows := range benchScale.RowsSweep {
		for _, reuse := range []bool{false, true} {
			name := fmt.Sprintf("rows=%d/reuse=%v", rows, reuse)
			b.Run(name, func(b *testing.B) {
				dir := b.TempDir()
				xPath, yPath, err := experiments.PrepareWorkloadFiles(dir, rows, benchScale.Cols, 0.1, int64(rows))
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := experiments.RunSysDSWorkload(dir, xPath, yPath, benchScale.KFixed, reuse); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Ablations --------------------------------------------------------------

func BenchmarkAblationSteplmPartialReuse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationSteplmPartialReuse(benchScale.Rows, 30); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationDistVsLocal(b *testing.B) {
	x := matrix.RandUniform(benchScale.Rows, benchScale.Cols, 0, 1, 1.0, 1)
	b.Run("local", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			matrix.TSMM(x, 0)
		}
	})
	b.Run("blocked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := experiments.AblationDistVsLocal([]int{benchScale.Rows}, benchScale.Cols, 512); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkAblationFederatedTSMM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationFederatedTSMM(benchScale.Rows, benchScale.Cols); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationParamServ(b *testing.B) {
	x, y := matrix.SyntheticRegression(benchScale.Rows, 20, 1.0, 3)
	init := matrix.NewDense(20, 1)
	for _, mode := range []paramserv.UpdateMode{paramserv.BSP, paramserv.ASP} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := paramserv.Config{Workers: 4, Epochs: 2, BatchSize: 64, LearnRate: 0.1, Mode: mode}
				if _, _, err := paramserv.Train(x, y, init, paramserv.LinRegGradient(), cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Kernel micro-benchmarks (supporting data for Figure 5(a)) -------------

// benchGEMMKernel times m x k %*% k x n with the given kernel forced and
// reports arithmetic throughput (gflops) alongside ns/op.
func benchGEMMKernel(b *testing.B, m, k, n int, kern matrix.GEMMKernel) {
	prev := matrix.SetGEMMKernel(kern)
	defer matrix.SetGEMMKernel(prev)
	x := matrix.RandUniform(m, k, -1, 1, 1.0, 5)
	y := matrix.RandUniform(k, n, -1, 1, 1.0, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := matrix.Multiply(x, y, 0); err != nil {
			b.Fatal(err)
		}
	}
	flops := 2 * float64(m) * float64(k) * float64(n)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflops")
}

// BenchmarkKernelGEMMStandard pins the simple blocked i-k-j kernel (the
// pre-tiled baseline); without the forced mode its shape now auto-selects the
// tiled engine and the benchmark would stop measuring the baseline.
func BenchmarkKernelGEMMStandard(b *testing.B) {
	benchGEMMKernel(b, 512, 256, 128, matrix.GEMMSimple)
}

func BenchmarkKernelGEMMStandard1024(b *testing.B) {
	benchGEMMKernel(b, 1024, 1024, 1024, matrix.GEMMSimple)
}

func BenchmarkKernelGEMMTiled512(b *testing.B) {
	benchGEMMKernel(b, 512, 512, 512, matrix.GEMMTiled)
}

func BenchmarkKernelGEMMTiled1024(b *testing.B) {
	benchGEMMKernel(b, 1024, 1024, 1024, matrix.GEMMTiled)
}

func BenchmarkKernelGEMMTiled2048(b *testing.B) {
	benchGEMMKernel(b, 2048, 2048, 2048, matrix.GEMMTiled)
}

// benchMultiplyAccKernel times the accumulate form the blocked dist executors
// run stage-by-stage (acc += a %*% b into a preallocated accumulator).
func benchMultiplyAccKernel(b *testing.B, dim int, kern matrix.GEMMKernel) {
	prev := matrix.SetGEMMKernel(kern)
	defer matrix.SetGEMMKernel(prev)
	x := matrix.RandUniform(dim, dim, -1, 1, 1.0, 5)
	y := matrix.RandUniform(dim, dim, -1, 1, 1.0, 6)
	acc := matrix.NewDense(dim, dim)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := matrix.MultiplyAcc(acc, x, y, 0); err != nil {
			b.Fatal(err)
		}
	}
	flops := 2 * float64(dim) * float64(dim) * float64(dim)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflops")
}

func BenchmarkKernelMultiplyAccStandard1024(b *testing.B) {
	benchMultiplyAccKernel(b, 1024, matrix.GEMMSimple)
}

func BenchmarkKernelMultiplyAccTiled1024(b *testing.B) {
	benchMultiplyAccKernel(b, 1024, matrix.GEMMTiled)
}

// benchTSMMKernel times t(X) %*% X; flops counts the upper triangle both
// kernels compute (the lower half is mirrored, not recomputed).
func benchTSMMKernel(b *testing.B, rows, cols int, kern matrix.GEMMKernel) {
	prev := matrix.SetGEMMKernel(kern)
	defer matrix.SetGEMMKernel(prev)
	x := matrix.RandUniform(rows, cols, -1, 1, 1.0, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matrix.TSMM(x, 0)
	}
	flops := float64(rows) * float64(cols+1) * float64(cols)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflops")
}

func BenchmarkKernelTSMMStandard4096x512(b *testing.B) {
	benchTSMMKernel(b, 4096, 512, matrix.GEMMSimple)
}

func BenchmarkKernelTSMMTiled4096x512(b *testing.B) {
	benchTSMMKernel(b, 4096, 512, matrix.GEMMTiled)
}

func BenchmarkKernelTSMMDense(b *testing.B) {
	x := matrix.RandUniform(benchScale.Rows, benchScale.Cols, -1, 1, 1.0, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matrix.TSMM(x, 0)
	}
}

func BenchmarkKernelTSMMSparse(b *testing.B) {
	x := matrix.RandUniform(benchScale.Rows, benchScale.Cols, 0, 1, 0.1, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matrix.TSMM(x, 0)
	}
}

// benchVectorKernel times the lm gradient loop's two product shapes against a
// 20000 x 200 X — X %*% v (mat-vec) or u %*% X (vec-mat, what t(X) %*% r
// becomes after the left-transpose rewrite) — for dense X, dense X on the
// forced simple kernel (the generic loop the vector kernels replace), and a
// 10%-dense sparse X. Dense runs report the X bytes streamed per second.
func benchVectorKernel(b *testing.B, matVec bool) {
	const rows, cols = 20000, 200
	for _, tc := range []struct {
		name     string
		sparsity float64
		kern     matrix.GEMMKernel
	}{
		{"dense", 1.0, matrix.GEMMAuto},
		{"dense-simple", 1.0, matrix.GEMMSimple},
		{"sparse10", 0.1, matrix.GEMMAuto},
	} {
		b.Run(tc.name, func(b *testing.B) {
			prev := matrix.SetGEMMKernel(tc.kern)
			defer matrix.SetGEMMKernel(prev)
			x := matrix.RandUniform(rows, cols, -1, 1, tc.sparsity, 9)
			left, right := x, matrix.RandUniform(cols, 1, -1, 1, 1.0, 10)
			if !matVec {
				left, right = matrix.RandUniform(1, rows, -1, 1, 1.0, 11), x
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := matrix.Multiply(left, right, 0); err != nil {
					b.Fatal(err)
				}
			}
			if !x.IsSparse() {
				b.ReportMetric(float64(rows*cols*8)*float64(b.N)/b.Elapsed().Seconds()/1e9, "gb/s")
			}
		})
	}
}

func BenchmarkKernelMatVec(b *testing.B) { benchVectorKernel(b, true) }

func BenchmarkKernelVecMat(b *testing.B) { benchVectorKernel(b, false) }

func BenchmarkCSVParse(b *testing.B) {
	dir := b.TempDir()
	xPath, _, err := experiments.PrepareWorkloadFiles(dir, benchScale.Rows, benchScale.Cols, 1.0, 9)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ReadWorkloadCSV(xPath); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Inter-operator DAG scheduler ------------------------------------------

// benchmarkSchedulerWideDAG executes a basic block with eight independent
// feature-transform chains (each a scale, shift and Gram computation on X).
// With InterOpParallelism > 1 the chains run concurrently on the scheduler's
// worker pool; kernels are pinned to one thread so the benchmark isolates
// inter-operator parallelism from intra-operator parallelism.
func benchmarkSchedulerWideDAG(b *testing.B, interOp int) {
	const branches = 8
	script := ""
	sum := ""
	for k := 1; k <= branches; k++ {
		script += fmt.Sprintf("F%d = X * %d + %d\nG%d = t(F%d) %%*%% F%d\n", k, k, k, k, k, k)
		if k > 1 {
			sum += " + "
		}
		sum += fmt.Sprintf("sum(G%d)", k)
	}
	script += "total = " + sum + "\n"
	ctx := systemds.NewContext(
		systemds.WithParallelism(1),
		systemds.WithInterOpParallelism(interOp),
		systemds.WithLineage(false),
	)
	prepared, err := ctx.Prepare(script, "total")
	if err != nil {
		b.Fatal(err)
	}
	x := matrix.RandUniform(600, 120, -1, 1, 1.0, 404)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prepared.Execute(map[string]any{"X": x}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSchedulerInterOpSequential(b *testing.B) { benchmarkSchedulerWideDAG(b, 1) }

func BenchmarkSchedulerInterOpWorkers2(b *testing.B) { benchmarkSchedulerWideDAG(b, 2) }

func BenchmarkSchedulerInterOpWorkers4(b *testing.B) { benchmarkSchedulerWideDAG(b, 4) }

func BenchmarkSchedulerInterOpWorkers8(b *testing.B) { benchmarkSchedulerWideDAG(b, 8) }

// --- Fused operator pipelines (PR 3) ----------------------------------------
//
// Fused-vs-unfused pairs on 2k x 2k dense inputs. The fused kernels must show
// a B/op drop (no full-size intermediate is materialized) and, with spare
// cores, a wall-clock win from the single pass; run with -benchmem.

const fusedBenchDim = 2048

func fusedBenchData() (x, y *matrix.MatrixBlock, v *matrix.MatrixBlock) {
	x = matrix.RandUniform(fusedBenchDim, fusedBenchDim, -1, 1, 1.0, 301)
	y = matrix.RandUniform(fusedBenchDim, fusedBenchDim, -1, 1, 1.0, 302)
	v = matrix.RandUniform(fusedBenchDim, 1, -1, 1, 1.0, 303)
	return
}

func benchmarkFusedSumXY(b *testing.B, threads int) {
	x, y, _ := fusedBenchData()
	prog := &matrix.CellProgram{
		Instrs: []matrix.CellInstr{
			{Code: matrix.CellLoad, Arg: 0}, {Code: matrix.CellLoad, Arg: 1},
			{Code: matrix.CellBinary, Bin: matrix.OpMul},
		},
		NumArgs: 2, Annihilating: true,
	}
	args := []matrix.CellArg{{Mat: x}, {Mat: y}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := matrix.FusedAgg(prog, matrix.AggSum, args, threads); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkUnfusedSumXY(b *testing.B, threads int) {
	x, y, _ := fusedBenchData()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prod, err := matrix.CellwiseOp(x, y, matrix.OpMul, threads)
		if err != nil {
			b.Fatal(err)
		}
		_ = matrix.Sum(prod, threads)
	}
}

func BenchmarkFusedSumXYThreads1(b *testing.B)   { benchmarkFusedSumXY(b, 1) }
func BenchmarkFusedSumXYThreads4(b *testing.B)   { benchmarkFusedSumXY(b, 4) }
func BenchmarkUnfusedSumXYThreads1(b *testing.B) { benchmarkUnfusedSumXY(b, 1) }
func BenchmarkUnfusedSumXYThreads4(b *testing.B) { benchmarkUnfusedSumXY(b, 4) }

func benchmarkFusedMMChain(b *testing.B, threads int) {
	x, _, v := fusedBenchData()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := matrix.MMChain(x, v, nil, threads); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkUnfusedMMChain(b *testing.B, threads int) {
	x, _, v := fusedBenchData()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		xv, err := matrix.Multiply(x, v, threads)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := matrix.Multiply(matrix.Transpose(x), xv, threads); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFusedMMChainThreads1(b *testing.B)   { benchmarkFusedMMChain(b, 1) }
func BenchmarkFusedMMChainThreads4(b *testing.B)   { benchmarkFusedMMChain(b, 4) }
func BenchmarkUnfusedMMChainThreads1(b *testing.B) { benchmarkUnfusedMMChain(b, 1) }
func BenchmarkUnfusedMMChainThreads4(b *testing.B) { benchmarkUnfusedMMChain(b, 4) }

// Kernel-parallelism benchmarks: the formerly single-threaded elementwise and
// aggregation kernels, at 1 vs 4 threads.

func benchmarkKernelParallelCellwise(b *testing.B, threads int) {
	x, y, _ := fusedBenchData()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := matrix.CellwiseOp(x, y, matrix.OpAdd, threads); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkKernelParallelSum(b *testing.B, threads int) {
	x, _, _ := fusedBenchData()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = matrix.Sum(x, threads)
	}
}

func benchmarkKernelParallelColSums(b *testing.B, threads int) {
	x, _, _ := fusedBenchData()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = matrix.ColSums(x, threads)
	}
}

func BenchmarkKernelParallelCellwiseThreads1(b *testing.B) { benchmarkKernelParallelCellwise(b, 1) }
func BenchmarkKernelParallelCellwiseThreads4(b *testing.B) { benchmarkKernelParallelCellwise(b, 4) }
func BenchmarkKernelParallelSumThreads1(b *testing.B)      { benchmarkKernelParallelSum(b, 1) }
func BenchmarkKernelParallelSumThreads4(b *testing.B)      { benchmarkKernelParallelSum(b, 4) }
func BenchmarkKernelParallelColSumsThreads1(b *testing.B)  { benchmarkKernelParallelColSums(b, 1) }
func BenchmarkKernelParallelColSumsThreads4(b *testing.B)  { benchmarkKernelParallelColSums(b, 4) }

// BenchmarkFusedPipelineEndToEnd measures the DML-level pipeline with fusion
// on and off (compile + execute, fused counters verified in tests).
func benchmarkFusedPipelineEndToEnd(b *testing.B, fusion bool) {
	x := matrix.RandUniform(1024, 256, -1, 1, 1.0, 304)
	y := matrix.RandUniform(1024, 256, -1, 1, 1.0, 305)
	v := matrix.RandUniform(256, 1, -1, 1, 1.0, 306)
	ctx := systemds.NewContext(systemds.WithFusion(fusion), systemds.WithLineage(false))
	prepared, err := ctx.Prepare("s = sum(X * Y)\ng = t(X) %*% (X %*% v)\nq = sum(g)", "s", "q")
	if err != nil {
		b.Fatal(err)
	}
	inputs := map[string]any{"X": x, "Y": y, "v": v}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prepared.Execute(inputs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFusedPipelineEndToEndOn(b *testing.B)  { benchmarkFusedPipelineEndToEnd(b, true) }
func BenchmarkFusedPipelineEndToEndOff(b *testing.B) { benchmarkFusedPipelineEndToEnd(b, false) }

// Planner-chosen vs forced-strategy matmult (ablation A6): the same
// both-over-budget multiplication executed through the engine (the cost-based
// planner picks the shuffle split) and through each forced dist executor.

const mmStratM, mmStratK, mmStratN, mmStratBS = 128, 2048, 64, 64

func mmStrategyData() (a, bm *matrix.MatrixBlock) {
	a = matrix.RandUniform(mmStratM, mmStratK, -1, 1, 1.0, 401)
	bm = matrix.RandUniform(mmStratK, mmStratN, -1, 1, 1.0, 402)
	return
}

func BenchmarkMatMultStrategyPlanner(b *testing.B) {
	x, y := mmStrategyData()
	ctx := systemds.NewContext(
		systemds.WithDistributedBackend(true),
		systemds.WithDistBlocksize(mmStratBS),
		systemds.WithOperatorMemBudget(int64(mmStratK*mmStratN*8/2)),
		systemds.WithLineage(false),
	)
	prepared, err := ctx.Prepare("s = sum(A %*% B)", "s")
	if err != nil {
		b.Fatal(err)
	}
	inputs := map[string]any{"A": x, "B": y}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prepared.Execute(inputs); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkMatMultStrategyForced(b *testing.B, run func(ba, bb *dist.BlockedMatrix, rb *matrix.MatrixBlock) error) {
	x, y := mmStrategyData()
	ba, err := dist.FromMatrixBlock(x, mmStratBS)
	if err != nil {
		b.Fatal(err)
	}
	bb, err := dist.FromMatrixBlock(y, mmStratBS)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(ba, bb, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatMultStrategyForcedBR(b *testing.B) {
	benchmarkMatMultStrategyForced(b, func(ba, _ *dist.BlockedMatrix, rb *matrix.MatrixBlock) error {
		_, err := dist.MatMult(ba, rb, 0)
		return err
	})
}

func BenchmarkMatMultStrategyForcedGJ(b *testing.B) {
	benchmarkMatMultStrategyForced(b, func(ba, bb *dist.BlockedMatrix, _ *matrix.MatrixBlock) error {
		_, err := dist.MatMultBB(ba, bb, 0)
		return err
	})
}

func BenchmarkMatMultStrategyForcedSH(b *testing.B) {
	benchmarkMatMultStrategyForced(b, func(ba, bb *dist.BlockedMatrix, _ *matrix.MatrixBlock) error {
		_, err := dist.MatMultShuffle(ba, bb, 0)
		return err
	})
}

// --- PR 5: compressed linear algebra ---------------------------------------
//
// BenchmarkCompressedMV{DDC,RLE,Uncompressed} time the matrix-vector product
// on a 16384 x 128 matrix under the three column-group encodings. The
// "databytes/op" metric reports the bytes of matrix representation the kernel
// streams per operation (the quantity compression shrinks); with -benchmem
// the usual B/op column reports per-op allocations (both paths allocate the
// same output vector).

func compressedMVBench(b *testing.B, x *matrix.MatrixBlock) {
	b.Helper()
	cm, plan, ok := compress.Compress(x, compress.PlannerConfig{}, 1)
	if !ok {
		b.Fatalf("benchmark input did not compress: %v", plan)
	}
	v := matrix.RandUniform(x.Cols(), 1, -1, 1, 1.0, 77)
	dataBytes := cm.InMemorySize() + int64(x.Cols()+x.Rows())*8
	b.SetBytes(dataBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cm.MatVec(v, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(dataBytes), "databytes/op")
}

// ddcBenchMatrix has 8 distinct values per column in random row order: the
// dense-dictionary-coding regime.
func ddcBenchMatrix() *matrix.MatrixBlock {
	noise := matrix.RandUniform(16384, 128, 0, 1, 1.0, 501)
	x := matrix.NewDense(16384, 128)
	for r := 0; r < 16384; r++ {
		for c := 0; c < 128; c++ {
			x.Set(r, c, float64(int(noise.Get(r, c)*8)))
		}
	}
	x.RecomputeNNZ()
	return x
}

// rleBenchMatrix changes value every 256 rows: the run-length regime.
func rleBenchMatrix() *matrix.MatrixBlock {
	x := matrix.NewDense(16384, 128)
	for r := 0; r < 16384; r++ {
		for c := 0; c < 128; c++ {
			x.Set(r, c, float64(((r/256)+c)%16))
		}
	}
	x.RecomputeNNZ()
	return x
}

func BenchmarkCompressedMVDDC(b *testing.B) { compressedMVBench(b, ddcBenchMatrix()) }

func BenchmarkCompressedMVRLE(b *testing.B) { compressedMVBench(b, rleBenchMatrix()) }

// BenchmarkCompressedMVUncompressed is the dense-kernel baseline over the
// same logical matrix.
func BenchmarkCompressedMVUncompressed(b *testing.B) {
	x := ddcBenchMatrix()
	v := matrix.RandUniform(x.Cols(), 1, -1, 1, 1.0, 77)
	dataBytes := x.InMemorySize() + int64(x.Cols()+x.Rows())*8
	b.SetBytes(dataBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := matrix.Multiply(x, v, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(dataBytes), "databytes/op")
}

// BenchmarkCompressedLoopEpoch times one epoch of the compressed gradient
// step (X %*% w, then t(X) %*% r via the vector-matrix kernel) against the
// same epoch on the dense block.
func BenchmarkCompressedLoopEpoch(b *testing.B) {
	x := ddcBenchMatrix()
	cm, _, ok := compress.Compress(x, compress.PlannerConfig{}, 1)
	if !ok {
		b.Fatal("benchmark input did not compress")
	}
	w := matrix.RandUniform(x.Cols(), 1, -1, 1, 1.0, 78)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cm.MMChain(w, nil, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUncompressedLoopEpoch(b *testing.B) {
	x := ddcBenchMatrix()
	w := matrix.RandUniform(x.Cols(), 1, -1, 1, 1.0, 78)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := matrix.MMChain(x, w, nil, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- PR 8: deep compressed execution ----------------------------------------
//
// BenchmarkCompressedTSMM times the Gram matrix t(X) %*% X straight off the
// column-group dictionaries (counts-weighted self products, co-occurrence-
// weighted cross products) against decompress-then-tiled-TSMM on the same
// logical matrix. BenchmarkCompressedMMDense times the matrix right-hand-side
// kernel X %*% B, and BenchmarkCompressedDistMV the partitioned broadcast-
// right executor of the blocked backend. All report databytes/op (the bytes
// of matrix representation streamed per op) and gflops of the equivalent
// dense computation.

// tsmmBenchMatrix is the co-coded regime the compressed TSMM targets: 16
// bands of 8 adjacent columns each derive from one shared 8-valued signal
// (plus a per-column offset), so the greedy co-coding planner collapses each
// band into one tuple-dictionary group and the Gram matrix reduces to a few
// dozen small dictionary cross products instead of a dense O(rows * n^2)
// sweep. Independent-column DDC data (ddcBenchMatrix) stays the driver of the
// MV/MM benchmarks, where per-group pre-aggregation wins on its own.
func tsmmBenchMatrix() *matrix.MatrixBlock {
	const rows, cols, band = 16384, 128, 8
	x := matrix.NewDense(rows, cols)
	noise := matrix.RandUniform(rows, cols/band, 0, 1, 1.0, 502)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			signal := float64(int(noise.Get(r, c/band) * 8))
			x.Set(r, c, signal+float64(c%band))
		}
	}
	x.RecomputeNNZ()
	return x
}

func BenchmarkCompressedTSMM(b *testing.B) {
	x := tsmmBenchMatrix()
	cm, _, ok := compress.Compress(x, compress.PlannerConfig{}, 1)
	if !ok {
		b.Fatal("benchmark input did not compress")
	}
	dataBytes := cm.InMemorySize()
	flops := float64(x.Rows()) * float64(x.Cols()) * float64(x.Cols())
	b.SetBytes(dataBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm.TSMM(1)
	}
	b.ReportMetric(float64(dataBytes), "databytes/op")
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflops")
}

// BenchmarkCompressedTSMMDecompress is the fallback baseline the compressed
// TSMM kernel replaces: decompress the column groups, then run the tiled
// dense TSMM over the materialized block.
func BenchmarkCompressedTSMMDecompress(b *testing.B) {
	x := tsmmBenchMatrix()
	cm, _, ok := compress.Compress(x, compress.PlannerConfig{}, 1)
	if !ok {
		b.Fatal("benchmark input did not compress")
	}
	dataBytes := x.InMemorySize()
	flops := float64(x.Rows()) * float64(x.Cols()) * float64(x.Cols())
	b.SetBytes(dataBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matrix.TSMM(cm.Decompress(), 1)
	}
	b.ReportMetric(float64(dataBytes), "databytes/op")
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflops")
}

func BenchmarkCompressedMMDense(b *testing.B) {
	x := ddcBenchMatrix()
	cm, _, ok := compress.Compress(x, compress.PlannerConfig{}, 1)
	if !ok {
		b.Fatal("benchmark input did not compress")
	}
	const k = 16
	rhs := matrix.RandUniform(x.Cols(), k, -1, 1, 1.0, 79)
	dataBytes := cm.InMemorySize() + int64(x.Cols()*k+x.Rows()*k)*8
	flops := 2 * float64(x.Rows()) * float64(x.Cols()) * float64(k)
	b.SetBytes(dataBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cm.MatMultDense(rhs, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(dataBytes), "databytes/op")
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflops")
}

// BenchmarkCompressedMMDenseDecompress is the decompress-then-dense baseline
// of the matrix right-hand-side kernel.
func BenchmarkCompressedMMDenseDecompress(b *testing.B) {
	x := ddcBenchMatrix()
	cm, _, ok := compress.Compress(x, compress.PlannerConfig{}, 1)
	if !ok {
		b.Fatal("benchmark input did not compress")
	}
	const k = 16
	rhs := matrix.RandUniform(x.Cols(), k, -1, 1, 1.0, 79)
	dataBytes := x.InMemorySize() + int64(x.Cols()*k+x.Rows()*k)*8
	flops := 2 * float64(x.Rows()) * float64(x.Cols()) * float64(k)
	b.SetBytes(dataBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := matrix.Multiply(cm.Decompress(), rhs, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(dataBytes), "databytes/op")
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflops")
}

func BenchmarkCompressedDistMV(b *testing.B) {
	x := ddcBenchMatrix()
	cm, _, ok := compress.Compress(x, compress.PlannerConfig{}, 1)
	if !ok {
		b.Fatal("benchmark input did not compress")
	}
	part, err := dist.PartitionCompressed(cm, 1024)
	if err != nil {
		b.Fatal(err)
	}
	v := matrix.RandUniform(x.Cols(), 1, -1, 1, 1.0, 80)
	dataBytes := part.InMemorySize() + int64(x.Cols()+x.Rows())*8
	flops := 2 * float64(x.Rows()) * float64(x.Cols())
	b.SetBytes(dataBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dist.CompressedMatVec(part, v, 4); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(dataBytes), "databytes/op")
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflops")
}

// --- Adaptive runtime: cross-run lineage reuse + calibration ---------------

const lineageBenchScript = `
[B, losses] = gridSearchLM(X, y, lambdas)
`

func lineageBenchInputs() map[string]any {
	x, y := matrix.SyntheticRegression(benchScale.Rows, benchScale.Cols, 1.0, 115)
	lambdas := matrix.FromRows([][]float64{{0.001}, {0.01}, {0.1}, {1}, {10}})
	return map[string]any{"X": x, "y": y, "lambdas": lambdas}
}

func lineageReuseContext(dir string) *systemds.Context {
	return systemds.NewContext(
		systemds.WithPersistentLineage(dir),
		systemds.WithCompression(true),
		systemds.WithParallelism(4),
	)
}

// BenchmarkLineageReuseCold times the grid-search scenario against an empty
// persistent store: every reusable intermediate is computed and spilled.
// databytes/op reports the bytes written to the store per run.
func BenchmarkLineageReuseCold(b *testing.B) {
	inputs := lineageBenchInputs()
	var dataBytes int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		// context construction measures/caches the machine profile, untimed
		ctx := lineageReuseContext(dir)
		b.StartTimer()
		if _, err := ctx.Execute(lineageBenchScript, inputs, "B", "losses"); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		dataBytes += ctx.LineageStoreStats().BytesWritten
		b.StartTimer()
	}
	b.ReportMetric(float64(dataBytes)/float64(b.N), "databytes/op")
}

// BenchmarkLineageReuseWarm primes the store once, then times re-runs in
// fresh contexts (fresh in-memory cache, same directory — the next process
// of the lifecycle). databytes/op reports the spill bytes read back per run.
func BenchmarkLineageReuseWarm(b *testing.B) {
	inputs := lineageBenchInputs()
	dir := b.TempDir()
	if _, err := lineageReuseContext(dir).Execute(lineageBenchScript, inputs, "B", "losses"); err != nil {
		b.Fatal(err)
	}
	var dataBytes int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ctx := lineageReuseContext(dir)
		b.StartTimer()
		if _, err := ctx.Execute(lineageBenchScript, inputs, "B", "losses"); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		st := ctx.LineageStoreStats()
		if st.Hits == 0 {
			b.Fatal("warm run reused nothing from the persistent store")
		}
		dataBytes += st.BytesRead
		b.StartTimer()
	}
	b.ReportMetric(float64(dataBytes)/float64(b.N), "databytes/op")
}

// benchmarkCalibrationDelta runs a matmult whose static memory estimate sits
// just over the CP budget (so the uncalibrated planner ships it to the
// distributed backend) with and without synthetic history saying the static
// model overestimates 8x. The calibrated planner keeps the operator in CP;
// the pair quantifies what a learned crossover is worth end to end.
func benchmarkCalibrationDelta(b *testing.B, calib *hops.Calibration) {
	const n = 256
	am := matrix.RandUniform(n, n, -1, 1, 1.0, 61)
	bm := matrix.RandUniform(n, n, -1, 1, 1.0, 62)
	sz := types.EstimateSize(types.NewDataCharacteristics(n, n, 1024, -1))
	cfg := runtime.DefaultConfig()
	cfg.Parallelism = 4
	cfg.DistEnabled = true
	cfg.OperatorMemBudget = 2*sz - 1 // out + maxIn just over budget
	cfg.Calib = calib
	eng := core.NewEngine(cfg)
	inputs := map[string]any{"A": am, "B": bm}
	dataBytes := 2 * am.InMemorySize()
	b.SetBytes(dataBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.Execute(`C = A %*% B`, inputs, []string{"C"}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(dataBytes), "databytes/op")
}

func BenchmarkCalibrationDeltaUncalibrated(b *testing.B) {
	benchmarkCalibrationDelta(b, nil)
}

func BenchmarkCalibrationDeltaCalibrated(b *testing.B) {
	calib := hops.NewCalibration()
	for i := 0; i < 5; i++ {
		calib.Observe("ba+*", 8000, 1000) // history: outputs 8x below estimate
	}
	benchmarkCalibrationDelta(b, calib)
}
