package hops

import (
	"strings"
	"testing"

	"github.com/systemds/systemds-go/internal/types"
)

// dc builds dense characteristics with unknown nnz.
func dc(rows, cols int64) types.DataCharacteristics {
	return types.NewDataCharacteristics(rows, cols, types.DefaultBlocksize, -1)
}

// matmultDAG builds A %*% B with known input characteristics.
func matmultDAG(a, b types.DataCharacteristics) (*DAG, *Hop) {
	ra := NewRead("A", types.Matrix)
	rb := NewRead("B", types.Matrix)
	mm := NewHop(KindMatMult, "ba+*", ra, rb)
	mm.DataType = types.Matrix
	d := &DAG{Roots: []*Hop{NewWrite("C", mm)}}
	PropagateSizes(d, map[string]types.DataCharacteristics{"A": a, "B": b})
	return d, mm
}

// TestExecTypeCrossoverAtBudget asserts that the CP->Dist decision flips
// exactly at the operator's memory estimate: one byte of budget above keeps
// CP, one byte below selects the blocked backend.
func TestExecTypeCrossoverAtBudget(t *testing.T) {
	d, mm := matmultDAG(dc(512, 256), dc(256, 64))
	if mm.MemEstimate <= 0 {
		t.Fatalf("matmult estimate unknown: %d", mm.MemEstimate)
	}
	Plan(d, PlannerParams{MemBudget: mm.MemEstimate, DistEnabled: true, Blocksize: 128})
	if mm.ExecType != types.ExecCP {
		t.Errorf("estimate == budget: exec = %s, want CP", mm.ExecType)
	}
	Plan(d, PlannerParams{MemBudget: mm.MemEstimate - 1, DistEnabled: true, Blocksize: 128})
	if mm.ExecType != types.ExecDist {
		t.Errorf("estimate > budget: exec = %s, want DIST", mm.ExecType)
	}
	// disabled backend never distributes
	Plan(d, PlannerParams{MemBudget: mm.MemEstimate - 1, DistEnabled: false, Blocksize: 128})
	if mm.ExecType != types.ExecCP {
		t.Errorf("dist disabled: exec = %s, want CP", mm.ExecType)
	}
}

// TestMatMultBroadcastSideSelection asserts the broadcast strategy follows
// the operand that fits the budget: a small right operand broadcasts right, a
// small left operand broadcasts left.
func TestMatMultBroadcastSideSelection(t *testing.T) {
	const bs = 128
	budget := int64(96 << 10)
	big := dc(1024, 512)  // 4 MB
	small := dc(512, 8)   // ~32 KB <= budget
	smallL := dc(8, 1024) // ~64 KB <= budget

	if m, _ := ChooseMatMultStrategyCalibrated(big, small, bs, budget, nil, MachineProfile{}); m != types.MMBroadcastRight {
		t.Errorf("small right operand: strategy = %s, want br", m)
	}
	if m, _ := ChooseMatMultStrategyCalibrated(smallL, dc(1024, 512), bs, budget, nil, MachineProfile{}); m != types.MMBroadcastLeft {
		t.Errorf("small left operand: strategy = %s, want bl", m)
	}
}

// TestMatMultGridVsShuffleCrossover pins the gj<->sh decision to its computed
// crossover. For A: 256 x k, B: k x 128 with blocksize 128 the modeled costs
// are gj = 2*sizeL + 3*sizeR and sh = 2*sizeL + 2*sizeR + 2*sizeOut, so the
// strategies cross where sizeR = 2*sizeOut, i.e. k = 512: the grid join wins
// below, the shuffle split above.
func TestMatMultGridVsShuffleCrossover(t *testing.T) {
	const bs = 128
	budget := int64(16 << 10) // both operands exceed it at every tested k
	for _, tc := range []struct {
		k    int64
		want types.MatMultMethod
	}{
		{384, types.MMGridJoin},
		{768, types.MMShuffle},
	} {
		left, right := dc(256, tc.k), dc(tc.k, 128)
		if types.EstimateSize(left) <= budget || types.EstimateSize(right) <= budget {
			t.Fatalf("k=%d: operands must exceed the broadcast budget", tc.k)
		}
		m, shuffleBytes := ChooseMatMultStrategyCalibrated(left, right, bs, budget, nil, MachineProfile{})
		if m != tc.want {
			t.Errorf("k=%d: strategy = %s, want %s", tc.k, m, tc.want)
		}
		if shuffleBytes <= 0 {
			t.Errorf("k=%d: shuffle bytes = %d, want > 0", tc.k, shuffleBytes)
		}
	}
}

// TestPlanAnnotatesMatMult checks that Plan writes the strategy and cost
// annotations onto the HOP and that ExplainPlan renders them.
func TestPlanAnnotatesMatMult(t *testing.T) {
	// both operands over budget, k large -> shuffle split
	d, mm := matmultDAG(dc(256, 768), dc(768, 128))
	Plan(d, PlannerParams{MemBudget: 16 << 10, DistEnabled: true, Blocksize: 128})
	if mm.ExecType != types.ExecDist || mm.MMPlan != types.MMShuffle {
		t.Fatalf("plan = %s, want DIST:sh", mm.PlanString())
	}
	if !mm.CostEst.Known || mm.CostEst.Compute <= 0 || mm.CostEst.OutputBytes <= 0 || mm.CostEst.ShuffleBytes <= 0 {
		t.Errorf("cost estimate not populated: %+v", mm.CostEst)
	}
	explain := d.ExplainPlan()
	if !strings.Contains(explain, "plan=DIST:sh") {
		t.Errorf("ExplainPlan misses the strategy:\n%s", explain)
	}
	if !strings.Contains(explain, "shuffle=") || !strings.Contains(explain, "flops=") {
		t.Errorf("ExplainPlan misses cost annotations:\n%s", explain)
	}
	// 2*256*768*128 flops is far above matrix.TiledGEMMCrossoverFLOPs, so the
	// listing must surface the tiled kernel class the runtime will pick
	if !strings.Contains(explain, "kernel=tiled") {
		t.Errorf("ExplainPlan misses the kernel class:\n%s", explain)
	}
}

// TestExplainKernelTagFollowsSparsity: the dense kernel class prints only for
// operands estimated dense (known sparsity at or above SparseThreshold, or
// unknown); a sparse estimate runs the CSR kernels and prints no tag.
func TestExplainKernelTagFollowsSparsity(t *testing.T) {
	withNNZ := func(rows, cols int64, sparsity float64) types.DataCharacteristics {
		return types.NewDataCharacteristics(rows, cols, types.DefaultBlocksize, int64(float64(rows*cols)*sparsity))
	}
	for _, tc := range []struct {
		name string
		a, b types.DataCharacteristics
		want string
	}{
		{"X %*% v", dc(20000, 200), dc(200, 1), "kernel=mv"},
		{"u %*% X", dc(1, 20000), dc(20000, 200), "kernel=vm"},
		{"X(50%) %*% v", withNNZ(20000, 200, 0.5), dc(200, 1), "kernel=mv"},
		{"X(10%) %*% v", withNNZ(20000, 200, 0.1), dc(200, 1), ""},
		{"u %*% X(10%)", dc(1, 20000), withNNZ(20000, 200, 0.1), ""},
		{"X(10%) %*% B", withNNZ(512, 512, 0.1), dc(512, 512), ""},
	} {
		d, _ := matmultDAG(tc.a, tc.b)
		explain := d.ExplainPlan()
		if tc.want == "" {
			if strings.Contains(explain, "kernel=") {
				t.Errorf("%s: sparse operand tagged with a dense kernel:\n%s", tc.name, explain)
			}
		} else if !strings.Contains(explain, tc.want) {
			t.Errorf("%s: EXPLAIN misses %s:\n%s", tc.name, tc.want, explain)
		}
	}
	for _, x := range []struct {
		dc   types.DataCharacteristics
		want bool
	}{{dc(20000, 200), true}, {withNNZ(20000, 200, 0.1), false}} {
		r := NewRead("X", types.Matrix)
		tsmm := NewHop(KindTSMM, "tsmm", r)
		tsmm.DataType = types.Matrix
		d := &DAG{Roots: []*Hop{NewWrite("G", tsmm)}}
		PropagateSizes(d, map[string]types.DataCharacteristics{"X": x.dc})
		if got := strings.Contains(d.ExplainPlan(), "kernel="); got != x.want {
			t.Errorf("TSMM over %s: kernel tag printed = %v, want %v:\n%s", x.dc, got, x.want, d.ExplainPlan())
		}
	}
}

// TestFusionGateMatchesPlanner asserts the fuse<->no-fuse decision flips at
// the same budget the execution-type selection uses: an aggregate just inside
// the budget fuses, one step below the estimate sends the pipeline to the
// blocked backend unfused.
func TestFusionGateMatchesPlanner(t *testing.T) {
	build := func() (*DAG, *Hop) {
		x := NewRead("X", types.Matrix)
		y := NewRead("Y", types.Matrix)
		mul := NewHop(KindBinary, "*", x, y)
		mul.DataType = types.Matrix
		sum := NewHop(KindAggUnary, "sum", mul)
		sum.DataType = types.Scalar
		d := &DAG{Roots: []*Hop{NewWrite("s", sum)}}
		PropagateSizes(d, map[string]types.DataCharacteristics{
			"X": dc(512, 256), "Y": dc(512, 256),
		})
		return d, sum
	}

	d, sum := build()
	root := sum.Inputs[0]
	budget := root.MemEstimate // the cellwise root dominates the pipeline
	FuseOperators(d, PlannerParams{MemBudget: budget, DistEnabled: true})
	if sum.Kind != KindFusedAgg {
		t.Errorf("estimate == budget: aggregate did not fuse")
	}

	d, sum = build()
	FuseOperators(d, PlannerParams{MemBudget: budget - 1, DistEnabled: true})
	if sum.Kind == KindFusedAgg {
		t.Errorf("estimate > budget: aggregate fused although the planner would distribute it")
	}
	Plan(d, PlannerParams{MemBudget: budget - 1, DistEnabled: true, Blocksize: types.DefaultBlocksize})
	if sum.Inputs[0].ExecType != types.ExecDist {
		t.Errorf("planner kept the over-budget cellwise root in CP")
	}
}

// TestPlanRelevantUnknown checks the refined recompilation trigger: unknown
// sizes on operators the planner decides about fire it, unknown sizes no
// decision consumes do not.
func TestPlanRelevantUnknown(t *testing.T) {
	x := NewRead("X", types.Matrix) // unknown characteristics
	add := NewHop(KindBinary, "+", x, NewLiteralNumber(1))
	add.DataType = types.Matrix
	d := &DAG{Roots: []*Hop{NewWrite("y", add)}}
	PropagateSizes(d, nil)
	if !PlanRelevantUnknown(add) {
		t.Errorf("unknown-size binary must trigger recompilation")
	}

	fc := NewHop(KindFunctionCall, "f", x)
	fc.DataType = types.Matrix
	d2 := &DAG{Roots: []*Hop{NewWrite("z", fc)}}
	PropagateSizes(d2, nil)
	if PlanRelevantUnknown(fc) {
		t.Errorf("bare function call has no physical-plan decision; must not trigger recompilation")
	}

	// known sizes never trigger
	d3, mm := matmultDAG(dc(64, 64), dc(64, 64))
	_ = d3
	if PlanRelevantUnknown(mm) {
		t.Errorf("known-size matmult must not trigger recompilation")
	}
}

// --- cellwise nnz bounds -----------------------------------------------------

func TestCellwiseNNZBounds(t *testing.T) {
	a := types.NewDataCharacteristics(100, 100, types.DefaultBlocksize, 500)
	b := types.NewDataCharacteristics(100, 100, types.DefaultBlocksize, 300)
	if got := CellwiseNNZBound("*", a, b); got != 300 {
		t.Errorf("* bound = %d, want min(nnz) = 300", got)
	}
	if got := CellwiseNNZBound("+", a, b); got != 800 {
		t.Errorf("+ bound = %d, want sum(nnz) = 800", got)
	}
	// the sum bound caps at the cell count
	dense := types.NewDataCharacteristics(10, 10, types.DefaultBlocksize, 90)
	if got := CellwiseNNZBound("+", dense, dense); got != 100 {
		t.Errorf("+ bound = %d, want capped at 100 cells", got)
	}
	// comparisons create non-zeros from zero pairs: no bound
	if got := CellwiseNNZBound("==", a, b); got != -1 {
		t.Errorf("== bound = %d, want -1", got)
	}
	// broadcasting shapes get no bound
	vec := types.NewDataCharacteristics(100, 1, types.DefaultBlocksize, 50)
	if got := CellwiseNNZBound("*", a, vec); got != -1 {
		t.Errorf("broadcast bound = %d, want -1", got)
	}
	// unknown input nnz gets no bound
	unk := types.NewDataCharacteristics(100, 100, types.DefaultBlocksize, -1)
	if got := CellwiseNNZBound("*", a, unk); got != -1 {
		t.Errorf("unknown-nnz bound = %d, want -1", got)
	}
}

func TestScalarNNZBounds(t *testing.T) {
	m := types.NewDataCharacteristics(100, 100, types.DefaultBlocksize, 500)
	if got := ScalarNNZBound("*", m, 2.5, true); got != 500 {
		t.Errorf("X*2.5 bound = %d, want 500", got)
	}
	if got := ScalarNNZBound("*", m, 0, true); got != 0 {
		t.Errorf("X*0 bound = %d, want 0", got)
	}
	if got := ScalarNNZBound("/", m, 2, true); got != 500 {
		t.Errorf("X/2 bound = %d, want 500", got)
	}
	// s/X turns zeros into Inf: no bound
	if got := ScalarNNZBound("/", m, 2, false); got != -1 {
		t.Errorf("2/X bound = %d, want -1", got)
	}
	// s^X: 2^0 = 1 is dense
	if got := ScalarNNZBound("^", m, 2, false); got != -1 {
		t.Errorf("2^X bound = %d, want -1", got)
	}
	if got := ScalarNNZBound("+", m, 0, true); got != 500 {
		t.Errorf("X+0 bound = %d, want 500", got)
	}
	if got := ScalarNNZBound("+", m, 1, true); got != -1 {
		t.Errorf("X+1 bound = %d, want -1 (dense)", got)
	}
}

func TestUnaryNNZBounds(t *testing.T) {
	m := types.NewDataCharacteristics(100, 100, types.DefaultBlocksize, 500)
	if got := UnaryNNZBound("abs", m); got != 500 {
		t.Errorf("abs bound = %d, want 500", got)
	}
	if got := UnaryNNZBound("exp", m); got != -1 {
		t.Errorf("exp bound = %d, want -1 (exp(0)=1 is dense)", got)
	}
}

// TestSparseChainMemEstimate asserts the satellite's goal end to end: a
// cellwise multiply of two sparse operands no longer carries a worst-case
// dense estimate, so a sparse chain stops over-provisioning the budget gate.
func TestSparseChainMemEstimate(t *testing.T) {
	sparse := types.NewDataCharacteristics(1000, 1000, types.DefaultBlocksize, 10000) // 1% nnz
	a, b := NewRead("a", types.Matrix), NewRead("b", types.Matrix)
	mul := NewHop(KindBinary, "*", a, b)
	mul.DataType = types.Matrix
	d := &DAG{Roots: []*Hop{NewWrite("y", mul)}}
	PropagateSizes(d, map[string]types.DataCharacteristics{"a": sparse, "b": sparse})
	if mul.DC.NNZ != 10000 {
		t.Errorf("output nnz bound = %d, want 10000", mul.DC.NNZ)
	}
	denseBytes := types.EstimateSizeDense(1000, 1000)
	if mul.MemEstimate >= 2*denseBytes {
		t.Errorf("sparse chain estimate %d not below worst-case dense %d", mul.MemEstimate, 2*denseBytes)
	}
}

// --- compression decision site ----------------------------------------------

func TestShouldCompressFireAndNoFire(t *testing.T) {
	params := PlannerParams{MemBudget: 2 << 30, CompressionEnabled: true}
	site := func(rows, cols int64, reuse int) *Hop {
		in := NewRead("X", types.Matrix)
		in.DC = types.NewDataCharacteristics(rows, cols, types.DefaultBlocksize, -1)
		h := NewHop(KindCompress, "compress", in)
		h.DataType = types.Matrix
		h.CompressReuse = reuse
		return h
	}
	// large operand, loop-scale reuse: fire
	if !ShouldCompress(site(2000, 200, 20), params) {
		t.Errorf("large re-read operand should fire")
	}
	// below the size floor: never fire regardless of reuse
	if ShouldCompress(site(100, 20, 100), params) {
		t.Errorf("operand below CompressMinBytes should not fire")
	}
	// single-read operand: the encode pass cannot amortize
	if ShouldCompress(site(2000, 200, 1), params) {
		t.Errorf("single-use operand should not fire")
	}
	// unknown size: stay armed, recompilation re-decides
	unk := site(-1, -1, 20)
	unk.Inputs[0].DC = types.UnknownCharacteristics()
	if !ShouldCompress(unk, params) {
		t.Errorf("unknown-size site should stay armed for recompilation")
	}
	if !PlanRelevantUnknown(&Hop{Kind: KindCompress, MemEstimate: -1}) {
		t.Errorf("unknown compress site must be recompile-relevant")
	}
	// compression disabled: never fire
	if ShouldCompress(site(2000, 200, 20), PlannerParams{MemBudget: 2 << 30}) {
		t.Errorf("disabled compression should not fire")
	}
}

// TestPlanSetsCompressFire asserts the planner pass annotates the decision on
// the HOP, mirroring the matmult-strategy annotation flow.
func TestPlanSetsCompressFire(t *testing.T) {
	in := NewRead("X", types.Matrix)
	in.DC = types.NewDataCharacteristics(2000, 200, types.DefaultBlocksize, -1)
	h := NewHop(KindCompress, "compress", in)
	h.DataType = types.Matrix
	h.CompressReuse = 20
	d := &DAG{Roots: []*Hop{NewWrite("X", h)}}
	PropagateSizes(d, nil)
	Plan(d, PlannerParams{MemBudget: 2 << 30, CompressionEnabled: true})
	if !h.CompressFire {
		t.Errorf("planner did not fire the compression site")
	}
	if h.ExecType != types.ExecCP {
		t.Errorf("compression site exec type = %s, want CP", h.ExecType)
	}
	Plan(d, PlannerParams{MemBudget: 2 << 30})
	if h.CompressFire {
		t.Errorf("planner fired with compression disabled")
	}
}
