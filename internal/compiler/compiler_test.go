package compiler

import (
	"os"
	"strings"
	"testing"

	"github.com/systemds/systemds-go/internal/builtins"
	"github.com/systemds/systemds-go/internal/instructions"
	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/runtime"
	"github.com/systemds/systemds-go/internal/types"
)

func newCompiler(cfg *runtime.Config) *Compiler {
	if cfg == nil {
		cfg = runtime.DefaultConfig()
	}
	return New(cfg, builtins.NewRegistry())
}

func compileAndRun(t *testing.T, script string, inputs map[string]*matrix.MatrixBlock, outputs []string) map[string]runtime.Data {
	t.Helper()
	c := newCompiler(nil)
	prog, err := c.Compile(script, nil)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	ctx := runtime.NewContext(runtime.DefaultConfig())
	ctx.Prog = prog
	for name, m := range inputs {
		ctx.SetMatrix(name, m)
	}
	if err := prog.Execute(ctx); err != nil {
		t.Fatalf("execute: %v", err)
	}
	res := map[string]runtime.Data{}
	for _, o := range outputs {
		d, err := ctx.Get(o)
		if err != nil {
			t.Fatalf("output %s: %v", o, err)
		}
		res[o] = d
	}
	return res
}

func TestCompileSimpleProgramStructure(t *testing.T) {
	c := newCompiler(nil)
	prog, err := c.Compile(`
x = 1 + 2
if (x > 2) { y = 10 } else { y = 20 }
for (i in 1:3) { x = x + i }
while (x < 100) { x = x * 2 }
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Blocks) != 4 {
		t.Fatalf("blocks = %d, want 4", len(prog.Blocks))
	}
	if _, ok := prog.Blocks[0].(*runtime.BasicBlock); !ok {
		t.Errorf("block 0 = %T", prog.Blocks[0])
	}
	if _, ok := prog.Blocks[1].(*runtime.IfBlock); !ok {
		t.Errorf("block 1 = %T", prog.Blocks[1])
	}
	if _, ok := prog.Blocks[2].(*runtime.ForBlock); !ok {
		t.Errorf("block 2 = %T", prog.Blocks[2])
	}
	if _, ok := prog.Blocks[3].(*runtime.WhileBlock); !ok {
		t.Errorf("block 3 = %T", prog.Blocks[3])
	}
}

func TestCompileParforResultVars(t *testing.T) {
	c := newCompiler(nil)
	prog, err := c.Compile(`
R = matrix(0, 1, 5)
parfor (i in 1:5) {
  R[1, i] = i * i
}
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	fb, ok := prog.Blocks[1].(*runtime.ForBlock)
	if !ok || !fb.Parallel {
		t.Fatalf("expected parallel for block, got %T", prog.Blocks[1])
	}
	found := false
	for _, rv := range fb.ResultVars {
		if rv == "R" {
			found = true
		}
	}
	if !found {
		t.Errorf("result vars = %v, expected R", fb.ResultVars)
	}
}

func TestCompileUnknownFunctionRejected(t *testing.T) {
	c := newCompiler(nil)
	if _, err := c.Compile(`x = mysteryFn(1)`, nil); err == nil {
		t.Error("expected unknown function error")
	}
	if _, err := c.Compile(`x = `, nil); err == nil {
		t.Error("expected parse error")
	}
}

func TestCompileDMLBuiltinResolution(t *testing.T) {
	c := newCompiler(nil)
	prog, err := c.Compile(`B = lm(X, y)`, nil)
	if err != nil {
		t.Fatal(err)
	}
	// lm and its transitive dependencies lmDS and lmCG are compiled into the
	// function table on demand
	for _, fn := range []string{"lm", "lmDS", "lmCG"} {
		if _, ok := prog.Functions[fn]; !ok {
			t.Errorf("function %s not compiled", fn)
		}
	}
}

func TestIsCallablePredicate(t *testing.T) {
	c := newCompiler(nil)
	pred := c.IsCallable(nil)
	if !pred("sum") || !pred("lmDS") {
		t.Error("native and DML builtins should be callable")
	}
	if pred("definitelyNotAFunction") {
		t.Error("unknown names must not be callable")
	}
}

func TestCompiledScalarExecution(t *testing.T) {
	res := compileAndRun(t, `
a = 3
b = a ^ 2 + 1
c = min(b, 5)
`, nil, []string{"b", "c"})
	if res["b"].(*runtime.Scalar).Float64() != 10 {
		t.Errorf("b = %v", res["b"])
	}
	if res["c"].(*runtime.Scalar).Float64() != 5 {
		t.Errorf("c = %v", res["c"])
	}
}

func TestCompiledMatrixPipeline(t *testing.T) {
	x := matrix.FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	res := compileAndRun(t, `
G = t(X) %*% X
s = sum(G)
cs = colSums(X)
sub = X[2:3, ]
`, map[string]*matrix.MatrixBlock{"X": x}, []string{"G", "s", "cs", "sub"})
	g := res["G"].(*runtime.MatrixObject)
	blk, _ := g.Acquire()
	if !blk.Equals(matrix.TSMM(x, 1), 1e-12) {
		t.Error("G wrong")
	}
	if res["s"].(*runtime.Scalar).Float64() != matrix.Sum(blk, 1) {
		t.Error("s wrong")
	}
	sub, _ := res["sub"].(*runtime.MatrixObject).Acquire()
	if sub.Rows() != 2 || sub.Get(0, 0) != 3 {
		t.Errorf("sub = %v", sub)
	}
}

func TestTSMMFusionInCompiledCode(t *testing.T) {
	// verify that t(X) %*% X compiles to a tsmm instruction (not transpose +
	// matmult) by inspecting the lowered basic block
	c := newCompiler(nil)
	prog, err := c.Compile(`G = t(X) %*% X`, map[string]types.DataCharacteristics{
		"X": types.NewDataCharacteristics(100, 10, 1024, 1000),
	})
	if err != nil {
		t.Fatal(err)
	}
	bb := prog.Blocks[0].(*runtime.BasicBlock)
	opcodes := make([]string, 0, len(bb.Instructions))
	for _, inst := range bb.Instructions {
		opcodes = append(opcodes, inst.Opcode())
	}
	joined := strings.Join(opcodes, ",")
	if !strings.Contains(joined, "tsmm") {
		t.Errorf("expected tsmm in lowered instructions, got %v", opcodes)
	}
	if strings.Contains(joined, "ba+*") {
		t.Errorf("unexpected generic matmult in %v", opcodes)
	}
}

func TestExecTypeSelectionWithKnownSizes(t *testing.T) {
	cfg := runtime.DefaultConfig()
	cfg.DistEnabled = true
	cfg.OperatorMemBudget = 1 << 10 // 1 KB: everything large goes DIST
	c := New(cfg, builtins.NewRegistry())
	prog, err := c.Compile(`G = t(X) %*% X`, map[string]types.DataCharacteristics{
		"X": types.NewDataCharacteristics(2000, 200, 1024, 400000),
	})
	if err != nil {
		t.Fatal(err)
	}
	bb := prog.Blocks[0].(*runtime.BasicBlock)
	foundDist := false
	for _, inst := range bb.Instructions {
		if ts, ok := inst.(*instructions.TSMMInst); ok && ts.ExecType == types.ExecDist {
			foundDist = true
		}
	}
	if !foundDist {
		t.Error("expected the tsmm to be selected for the distributed backend")
	}
}

func TestDynamicRecompilationCallback(t *testing.T) {
	cfg := runtime.DefaultConfig()
	cfg.DistEnabled = true
	c := New(cfg, builtins.NewRegistry())
	// without known input sizes the block must be flagged for recompilation
	prog, err := c.Compile(`G = t(X) %*% X
s = sum(G)`, nil)
	if err != nil {
		t.Fatal(err)
	}
	bb := prog.Blocks[0].(*runtime.BasicBlock)
	if !bb.RequiresRecompile || bb.Recompile == nil {
		t.Fatal("expected recompilation callback for unknown sizes")
	}
	// executing still produces correct results (recompile path)
	ctx := runtime.NewContext(cfg)
	ctx.Prog = prog
	x := matrix.RandUniform(50, 5, -1, 1, 1.0, 3)
	ctx.SetMatrix("X", x)
	if err := prog.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	s, err := ctx.GetScalar("s")
	if err != nil {
		t.Fatal(err)
	}
	want := matrix.Sum(matrix.TSMM(x, 1), 1)
	if diff := s.Float64() - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("recompiled result = %v, want %v", s.Float64(), want)
	}
}

func TestCompileFunctionDefaults(t *testing.T) {
	res := compileAndRun(t, `
f = function(Double a, Double b = 4, Boolean flag = TRUE) return (Double out) {
  out = a + b
  if (!flag) {
    out = 0 - out
  }
}
x = f(1)
y = f(1, 2)
z = f(1, 2, flag=FALSE)
`, nil, []string{"x", "y", "z"})
	if res["x"].(*runtime.Scalar).Float64() != 5 {
		t.Errorf("x = %v", res["x"])
	}
	if res["y"].(*runtime.Scalar).Float64() != 3 {
		t.Errorf("y = %v", res["y"])
	}
	if res["z"].(*runtime.Scalar).Float64() != -3 {
		t.Errorf("z = %v", res["z"])
	}
}

func TestCompileNonLiteralDefaultRejected(t *testing.T) {
	c := newCompiler(nil)
	if _, err := c.Compile(`
f = function(Double a = sum(1)) return (Double y) { y = a }
x = f()
`, nil); err == nil {
		t.Error("expected error for non-literal default")
	}
}

func TestCompileNestedFunctionCallRejected(t *testing.T) {
	c := newCompiler(nil)
	if _, err := c.Compile(`x = sum(lmDS(X, y))`, nil); err == nil {
		t.Error("expected error for nested function call in expression")
	}
}

func TestCompileReadWritePrint(t *testing.T) {
	c := newCompiler(nil)
	prog, err := c.Compile(`
X = read("data.csv", format="csv")
print("rows: " + nrow(X))
write(X, "out.csv", format="csv")
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	bb := prog.Blocks[0].(*runtime.BasicBlock)
	var haveRead, havePrint, haveWrite bool
	for _, inst := range bb.Instructions {
		switch inst.Opcode() {
		case "read":
			haveRead = true
		case "print":
			havePrint = true
		case "write":
			haveWrite = true
		}
	}
	if !haveRead || !havePrint || !haveWrite {
		t.Errorf("missing instructions read=%v print=%v write=%v", haveRead, havePrint, haveWrite)
	}
}

func TestEstimateMemoryBudget(t *testing.T) {
	cfg := runtime.DefaultConfig()
	if EstimateMemoryBudget(cfg) != cfg.OperatorMemBudget {
		t.Error("explicit budget should be returned")
	}
	cfg.OperatorMemBudget = 0
	if EstimateMemoryBudget(cfg) <= 0 {
		t.Error("derived budget should be positive")
	}
}

func TestCompilerAttachesSchedulerDeps(t *testing.T) {
	c := newCompiler(nil)
	prog, err := c.Compile(`
A = X + 1
B = X * 2
C = A %*% B
print(sum(C))
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	bb, ok := prog.Blocks[0].(*runtime.BasicBlock)
	if !ok {
		t.Fatalf("block 0 is %T, want *runtime.BasicBlock", prog.Blocks[0])
	}
	if len(bb.Deps) != len(bb.Instructions) {
		t.Fatalf("Deps length %d != instruction count %d", len(bb.Deps), len(bb.Instructions))
	}
	// the compiler's exact edges must be consistent with (at least as strict
	// as required by) name-based analysis: scheduled execution must equal
	// sequential execution
	for i, ds := range bb.Deps {
		for _, d := range ds {
			if d < 0 || d >= i {
				t.Errorf("instruction %d has non-topological dep %d", i, d)
			}
		}
	}
	// the final print must be a barrier: it depends (transitively) on the
	// matmult producing C; verify a direct or indirect path exists
	last := len(bb.Instructions) - 1
	if bb.Instructions[last].Opcode() != "print" {
		t.Fatalf("last instruction is %s, want print", bb.Instructions[last].Opcode())
	}
	if len(bb.Deps[last]) == 0 {
		t.Errorf("print barrier has no dependencies")
	}
}

func TestCompilerMarksPredicateBlocksSequential(t *testing.T) {
	c := newCompiler(nil)
	prog, err := c.Compile(`
x = 5
if (x > 2) { y = 1 } else { y = 0 }
while (x > 10) { x = x - 1 }
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	var checked int
	for _, blk := range prog.Blocks {
		switch v := blk.(type) {
		case *runtime.IfBlock:
			if !v.Predicate.Sequential {
				t.Error("if predicate block must be sequential")
			}
			checked++
		case *runtime.WhileBlock:
			if !v.Predicate.Sequential {
				t.Error("while predicate block must be sequential")
			}
			checked++
		case *runtime.BasicBlock:
			if v.Sequential {
				t.Error("straight-line block must not be forced sequential")
			}
		}
	}
	if checked != 2 {
		t.Fatalf("checked %d control blocks, want 2", checked)
	}
}

func TestScheduledExecutionMatchesSequentialOnCompiledScript(t *testing.T) {
	script := `
A = X %*% t(X)
B = t(X) %*% X
C = X * 2
D = X + 1
E = C + D
s = sum(A) + sum(B) + sum(E)
`
	x := matrix.RandUniform(40, 8, -1, 1, 1.0, 11)
	run := func(interOp int) (*matrix.MatrixBlock, float64) {
		cfg := runtime.DefaultConfig()
		cfg.InterOpParallelism = interOp
		c := newCompiler(cfg)
		prog, err := c.Compile(script, nil)
		if err != nil {
			t.Fatal(err)
		}
		ctx := runtime.NewContext(cfg)
		ctx.Prog = prog
		ctx.SetMatrix("X", x)
		if err := prog.Execute(ctx); err != nil {
			t.Fatal(err)
		}
		e, err := ctx.GetMatrixBlockFor("E", "test")
		if err != nil {
			t.Fatal(err)
		}
		s, err := ctx.GetScalar("s")
		if err != nil {
			t.Fatal(err)
		}
		return e, s.Float64()
	}
	eSeq, sSeq := run(1)
	ePar, sPar := run(4)
	if sSeq != sPar {
		t.Errorf("scalar result differs: sequential %v, scheduled %v", sSeq, sPar)
	}
	if !eSeq.Equals(ePar, 0) {
		t.Error("matrix result differs between sequential and scheduled execution")
	}
}

// TestLmTraceLoopHasNoTransposeOfX compiles scripts/lm_trace.dml and asserts
// that the plan the loop executes lowers the gradient step t(X) %*% (q - y)
// without a transpose of X: the left-transpose rewrite turns it into
// t(t(q - y) %*% X). The loop body compiles size-unknown (X comes from
// rand), so the rewrite fires only after dynamic recompilation, which must
// happen with fusion off too.
func TestLmTraceLoopHasNoTransposeOfX(t *testing.T) {
	src, err := os.ReadFile("../../scripts/lm_trace.dml")
	if err != nil {
		t.Fatal(err)
	}
	for _, fusionDisabled := range []bool{false, true} {
		cfg := runtime.DefaultConfig()
		cfg.FusionDisabled = fusionDisabled
		prog, err := newCompiler(cfg).Compile(string(src), nil)
		if err != nil {
			t.Fatal(err)
		}
		ctx := runtime.NewContext(cfg)
		ctx.SetMatrix("X", matrix.NewDense(2000, 200))
		ctx.SetMatrix("y", matrix.NewDense(2000, 1))
		ctx.SetMatrix("w", matrix.NewDense(200, 1))
		var loopMatMults int
		check := func(instrs []runtime.Instruction) {
			for _, inst := range instrs {
				if r, ok := inst.(*instructions.ReorgInst); ok && r.Opcode() == "r'" && r.In.Name == "X" {
					t.Errorf("fusionDisabled=%v: transpose of X in the executed plan", fusionDisabled)
				}
				if inst.Opcode() == "ba+*" {
					loopMatMults++
				}
			}
		}
		var walk func(blocks []runtime.ProgramBlock)
		walk = func(blocks []runtime.ProgramBlock) {
			for _, b := range blocks {
				switch v := b.(type) {
				case *runtime.BasicBlock:
					if !v.RequiresRecompile {
						check(v.Instructions)
						continue
					}
					instrs, err := v.Recompile(ctx)
					if err != nil {
						t.Fatal(err)
					}
					check(instrs)
				case *runtime.ForBlock:
					walk(v.Body)
				}
			}
		}
		walk(prog.Blocks)
		if loopMatMults == 0 {
			t.Fatalf("fusionDisabled=%v: no matrix multiplication found in the compiled loop", fusionDisabled)
		}
	}
}
