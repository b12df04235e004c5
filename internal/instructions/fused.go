package instructions

import (
	"fmt"

	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/runtime"
)

// MMChainInst computes the fused matrix-multiply chain t(X) %*% (X %*% v)
// (opcode "mmchain"), optionally weighted as t(X) %*% (w * (X %*% v)), in a
// single pass over X without materializing the transpose or the m x 1
// intermediate.
type MMChainInst struct {
	base
	X, V, W  Operand
	Weighted bool
}

// NewMMChain creates a fused mmchain instruction; pass weighted=false and a
// zero W operand for the unweighted chain.
func NewMMChain(out string, x, v, w Operand, weighted bool) *MMChainInst {
	inst := &MMChainInst{X: x, V: v, W: w, Weighted: weighted}
	if weighted {
		inst.base = newBase("mmchain", []string{out}, "xtwxv", x, v, w)
	} else {
		inst.base = newBase("mmchain", []string{out}, "xtxv", x, v)
	}
	return inst
}

// Execute implements runtime.Instruction.
func (i *MMChainInst) Execute(ctx *runtime.Context) error {
	vb, err := i.V.MatrixBlockFor(ctx, i.opcode)
	if err != nil {
		return err
	}
	var wb *matrix.MatrixBlock
	if i.Weighted {
		if wb, err = i.W.MatrixBlockFor(ctx, i.opcode); err != nil {
			return err
		}
	}
	// the chain over a compressed X runs both passes directly on the column
	// groups — the hot gradient step of iterative algorithms never
	// decompresses
	if xd, err := i.X.Resolve(ctx); err == nil {
		if co, ok := xd.(*runtime.CompressedMatrixObject); ok {
			cm, err := co.Compressed()
			if err != nil {
				return err
			}
			res, err := cm.MMChain(vb, wb, ctx.Config.Threads())
			if err != nil {
				return fmt.Errorf("instructions: compressed mmchain: %w", err)
			}
			ctx.Counters.CompressedOps.Add(1)
			ctx.Counters.MMChainOps.Add(1)
			ctx.SetMatrix(i.outs[0], res)
			return nil
		}
	}
	xb, err := i.X.MatrixBlockFor(ctx, i.opcode)
	if err != nil {
		return err
	}
	res, err := matrix.MMChain(xb, vb, wb, ctx.Config.Threads())
	if err != nil {
		return fmt.Errorf("instructions: mmchain: %w", err)
	}
	ctx.Counters.MMChainOps.Add(1)
	ctx.SetMatrix(i.outs[0], res)
	return nil
}

// FusedAggInst evaluates a fused cellwise-aggregate pipeline (opcode
// "fagg_<agg>"): the cell program runs once per cell and streams directly
// into the aggregate, with no full-size intermediate. The program signature
// is part of the lineage data, so distinct pipelines over the same inputs
// never share a lineage entry.
type FusedAggInst struct {
	base
	Agg  matrix.AggKind
	Prog *matrix.CellProgram
	Args []Operand
}

// NewFusedAgg creates a fused aggregate instruction.
func NewFusedAgg(agg matrix.AggKind, out string, prog *matrix.CellProgram, args []Operand) *FusedAggInst {
	inst := &FusedAggInst{Agg: agg, Prog: prog, Args: args}
	inst.base = newBase("fagg_"+agg.String(), []string{out}, prog.Signature(), args...)
	return inst
}

// Execute implements runtime.Instruction.
func (i *FusedAggInst) Execute(ctx *runtime.Context) error {
	cargs := make([]matrix.CellArg, len(i.Args))
	for k, op := range i.Args {
		d, err := op.Resolve(ctx)
		if err != nil {
			return err
		}
		if s, ok := d.(*runtime.Scalar); ok {
			cargs[k] = matrix.CellArg{Scalar: s.Float64()}
			continue
		}
		blk, err := op.MatrixBlockFor(ctx, i.opcode)
		if err != nil {
			return err
		}
		cargs[k] = matrix.CellArg{Mat: blk}
	}
	res, err := matrix.FusedAgg(i.Prog, i.Agg, cargs, ctx.Config.Threads())
	if err != nil {
		return fmt.Errorf("instructions: %s: %w", i.opcode, err)
	}
	ctx.Counters.FusedAggOps.Add(1)
	switch i.Agg {
	case matrix.AggSum, matrix.AggMin, matrix.AggMax:
		ctx.Set(i.outs[0], runtime.NewDouble(res.Get(0, 0)))
	default:
		ctx.SetMatrix(i.outs[0], res)
	}
	return nil
}
