package runtime

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/obs"
)

func depsOf(t *testing.T, deps [][]int, i int) map[int]bool {
	t.Helper()
	set := map[int]bool{}
	for _, d := range deps[i] {
		set[d] = true
	}
	return set
}

func TestBuildDependenciesRAW(t *testing.T) {
	instrs := []Instruction{
		&fakeInst{opcode: "rand", outputs: []string{"A"}},
		&fakeInst{opcode: "rand", outputs: []string{"B"}},
		&fakeInst{opcode: "ba+*", inputs: []string{"A", "B"}, outputs: []string{"C"}},
	}
	deps := BuildDependencies(instrs)
	if len(deps[0]) != 0 || len(deps[1]) != 0 {
		t.Errorf("independent producers must have no deps, got %v %v", deps[0], deps[1])
	}
	got := depsOf(t, deps, 2)
	if !got[0] || !got[1] {
		t.Errorf("consumer must depend on both producers, got %v", deps[2])
	}
}

func TestBuildDependenciesWARAndWAW(t *testing.T) {
	instrs := []Instruction{
		&fakeInst{opcode: "rand", outputs: []string{"X"}},                        // 0: write X
		&fakeInst{opcode: "uak+", inputs: []string{"X"}, outputs: []string{"s"}}, // 1: read X
		&fakeInst{opcode: "rand", outputs: []string{"X"}},                        // 2: overwrite X
	}
	deps := BuildDependencies(instrs)
	got := depsOf(t, deps, 2)
	if !got[1] {
		t.Errorf("WAR: overwrite of X must wait for its reader, got %v", deps[2])
	}
	if !got[0] {
		t.Errorf("WAW: overwrite of X must wait for the previous writer, got %v", deps[2])
	}
}

func TestBuildDependenciesBarriers(t *testing.T) {
	instrs := []Instruction{
		&fakeInst{opcode: "rand", outputs: []string{"A"}},
		&fakeInst{opcode: "print", inputs: []string{"A"}},
		&fakeInst{opcode: "rand", outputs: []string{"B"}},
		&fakeInst{opcode: "print", inputs: []string{"B"}},
	}
	deps := BuildDependencies(instrs)
	if !depsOf(t, deps, 1)[0] {
		t.Errorf("barrier must wait for prior instructions, got %v", deps[1])
	}
	if !depsOf(t, deps, 2)[1] {
		t.Errorf("instruction after barrier must wait for it, got %v", deps[2])
	}
	if !depsOf(t, deps, 3)[2] || !depsOf(t, deps, 3)[1] {
		t.Errorf("second barrier must order after first barrier and later work, got %v", deps[3])
	}
}

// TestExecuteScheduledMatchesSequential runs the same block sequentially and
// scheduled and requires identical symbol tables.
func TestExecuteScheduledMatchesSequential(t *testing.T) {
	mkBlock := func() []Instruction {
		var instrs []Instruction
		// 8 independent chains, each: init -> square -> add-one
		for k := 0; k < 8; k++ {
			base := fmt.Sprintf("v%d", k)
			seed := float64(k + 1)
			instrs = append(instrs,
				&fakeInst{opcode: "init", outputs: []string{base}, data: fmt.Sprintf("%g", seed),
					execute: func(c *Context) error { c.Set(base, NewDouble(seed)); return nil }},
				&fakeInst{opcode: "sq", inputs: []string{base}, outputs: []string{base + "sq"},
					execute: func(c *Context) error {
						s, err := c.GetScalar(base)
						if err != nil {
							return err
						}
						c.Set(base+"sq", NewDouble(s.Float64()*s.Float64()))
						return nil
					}},
				&fakeInst{opcode: "inc", inputs: []string{base + "sq"}, outputs: []string{base + "r"},
					execute: func(c *Context) error {
						s, err := c.GetScalar(base + "sq")
						if err != nil {
							return err
						}
						c.Set(base+"r", NewDouble(s.Float64()+1))
						return nil
					}},
			)
		}
		// final reduction over all chains
		var ins []string
		for k := 0; k < 8; k++ {
			ins = append(ins, fmt.Sprintf("v%dr", k))
		}
		instrs = append(instrs, &fakeInst{opcode: "sumall", inputs: ins, outputs: []string{"total"},
			execute: func(c *Context) error {
				total := 0.0
				for _, in := range ins {
					s, err := c.GetScalar(in)
					if err != nil {
						return err
					}
					total += s.Float64()
				}
				c.Set("total", NewDouble(total))
				return nil
			}})
		return instrs
	}

	run := func(interOp int) map[string]float64 {
		cfg := DefaultConfig()
		cfg.InterOpParallelism = interOp
		ctx := NewContext(cfg)
		bb := &BasicBlock{Instructions: mkBlock()}
		if err := bb.Execute(ctx); err != nil {
			t.Fatal(err)
		}
		out := map[string]float64{}
		for _, name := range ctx.Variables() {
			s, err := ctx.GetScalar(name)
			if err != nil {
				t.Fatal(err)
			}
			out[name] = s.Float64()
		}
		return out
	}

	seq := run(1)
	par := run(4)
	if len(seq) != len(par) {
		t.Fatalf("symbol table sizes differ: %d vs %d", len(seq), len(par))
	}
	for k, v := range seq {
		if par[k] != v {
			t.Errorf("variable %s: scheduled %v != sequential %v", k, par[k], v)
		}
	}
}

// TestExecuteScheduledRunsConcurrently verifies that independent instructions
// overlap under the scheduler.
func TestExecuteScheduledRunsConcurrently(t *testing.T) {
	var cur, peak atomic.Int64
	var gate sync.WaitGroup
	gate.Add(4)
	var instrs []Instruction
	for k := 0; k < 4; k++ {
		out := fmt.Sprintf("w%d", k)
		instrs = append(instrs, &fakeInst{opcode: "wait", outputs: []string{out},
			execute: func(c *Context) error {
				if n := cur.Add(1); n > peak.Load() {
					peak.Store(n)
				}
				// wait until all four instructions are in flight; this
				// deadlocks (and fails via test timeout) if the scheduler
				// does not overlap independent instructions
				gate.Done()
				gate.Wait()
				cur.Add(-1)
				c.Set(out, NewDouble(1))
				return nil
			}})
	}
	cfg := DefaultConfig()
	cfg.InterOpParallelism = 4
	ctx := NewContext(cfg)
	bb := &BasicBlock{Instructions: instrs}
	if err := bb.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if peak.Load() < 4 {
		t.Errorf("peak concurrency %d, want 4", peak.Load())
	}
}

func TestExecuteScheduledPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	var after atomic.Int64
	instrs := []Instruction{
		&fakeInst{opcode: "ok", outputs: []string{"a"},
			execute: func(c *Context) error { c.Set("a", NewDouble(1)); return nil }},
		&fakeInst{opcode: "fail", inputs: []string{"a"}, outputs: []string{"b"},
			execute: func(c *Context) error { return boom }},
		&fakeInst{opcode: "after", inputs: []string{"b"}, outputs: []string{"c"},
			execute: func(c *Context) error { after.Add(1); return nil }},
	}
	cfg := DefaultConfig()
	cfg.InterOpParallelism = 4
	ctx := NewContext(cfg)
	bb := &BasicBlock{Instructions: instrs}
	err := bb.Execute(ctx)
	if !errors.Is(err, boom) {
		t.Fatalf("expected boom, got %v", err)
	}
	if after.Load() != 0 {
		t.Errorf("dependent of failed instruction must not execute")
	}
}

// TestSchedulerHonorsCompilerDeps checks that explicit Deps are used as-is.
func TestSchedulerHonorsCompilerDeps(t *testing.T) {
	var order []string
	var mu sync.Mutex
	record := func(name string) func(*Context) error {
		return func(c *Context) error {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			c.Set(name, NewDouble(1))
			return nil
		}
	}
	instrs := []Instruction{
		&fakeInst{opcode: "a", outputs: []string{"a"}, execute: record("a")},
		&fakeInst{opcode: "b", outputs: []string{"b"}, execute: record("b")},
	}
	// artificial edge b->a even though names are independent
	deps := [][]int{nil, {0}}
	cfg := DefaultConfig()
	cfg.InterOpParallelism = 2
	ctx := NewContext(cfg)
	bb := &BasicBlock{Instructions: instrs, Deps: deps}
	if err := bb.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Errorf("explicit dependency not honored, order %v", order)
	}
}

// TestSchedulerLineageAndReuseConcurrent runs a wide block with lineage-based
// reuse enabled under the scheduler, twice, and expects the second run to be
// answered from the cache with identical results.
func TestSchedulerLineageAndReuseConcurrent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InterOpParallelism = 4
	cfg.ReuseEnabled = true
	ctx := NewContext(cfg)
	X := matrix.RandUniform(50, 8, -1, 1, 1.0, 7)
	ctx.SetMatrix("X", X)

	var instrs []Instruction
	for k := 0; k < 6; k++ {
		out := fmt.Sprintf("g%d", k)
		scale := float64(k + 1)
		instrs = append(instrs, &fakeInst{opcode: "scale", inputs: []string{"X"},
			outputs: []string{out}, data: fmt.Sprintf("%g", scale),
			execute: func(c *Context) error {
				blk, err := c.GetMatrixBlockFor("X", "test")
				if err != nil {
					return err
				}
				c.SetMatrix(out, matrix.ScalarOp(blk, scale, matrix.OpMul, false, 1))
				return nil
			}})
	}
	bb := &BasicBlock{Instructions: instrs}
	if err := bb.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	first := map[string]*matrix.MatrixBlock{}
	for k := 0; k < 6; k++ {
		blk, err := ctx.GetMatrixBlockFor(fmt.Sprintf("g%d", k), "test")
		if err != nil {
			t.Fatal(err)
		}
		first[fmt.Sprintf("g%d", k)] = blk
	}
	hitsBefore := ctx.Cache.Stats().Hits
	if err := bb.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if got := ctx.Cache.Stats().Hits - hitsBefore; got != 6 {
		t.Errorf("expected 6 cache hits on re-execution, got %d", got)
	}
	for name, want := range first {
		blk, err := ctx.GetMatrixBlockFor(name, "test")
		if err != nil {
			t.Fatal(err)
		}
		if !blk.Equals(want, 0) {
			t.Errorf("%s differs between runs", name)
		}
	}
}

func TestExecuteScheduledRejectsBadDeps(t *testing.T) {
	instrs := []Instruction{
		&fakeInst{opcode: "a", outputs: []string{"a"}, execute: func(c *Context) error { return nil }},
	}
	ctx := NewContext(DefaultConfig())
	if err := ExecuteScheduled(ctx, instrs, [][]int{{0}}, 2, obs.Span{}); err == nil {
		t.Error("self-dependency must be rejected")
	}
	if err := ExecuteScheduled(ctx, instrs, [][]int{{5}}, 2, obs.Span{}); err == nil {
		t.Error("out-of-range dependency must be rejected")
	}
	if err := ExecuteScheduled(ctx, instrs, [][]int{}, 2, obs.Span{}); err == nil {
		t.Error("dependency-list length mismatch must be rejected")
	}
}
