package instructions

import (
	"github.com/systemds/systemds-go/internal/compress"
	"github.com/systemds/systemds-go/internal/runtime"
)

// CompressInst executes a compression decision site (opcode "compress"): the
// sample-based planner in internal/compress estimates per-column cardinality
// and run structure, picks the cheapest encoding per column, and rejects
// compression outright when the estimated ratio is below its threshold. A
// rejected attempt (or a non-matrix operand) rebinds the original value, so
// the site is always safe to execute.
type CompressInst struct {
	base
	In Operand
	// EstBytes is the planner's estimated uncompressed operand size (-1
	// unknown), surfaced next to the achieved compressed size in the plan
	// statistics.
	EstBytes int64
}

// NewCompress creates a compress instruction.
func NewCompress(out string, in Operand) *CompressInst {
	inst := &CompressInst{In: in, EstBytes: -1}
	inst.base = newBase("compress", []string{out}, "", in)
	return inst
}

// Execute implements runtime.Instruction.
func (i *CompressInst) Execute(ctx *runtime.Context) error {
	d, err := i.In.Resolve(ctx)
	if err != nil {
		return err
	}
	mo, ok := d.(*runtime.MatrixObject)
	if !ok {
		// already compressed, scalar, frame, blocked or federated: the site
		// does not apply; keep the value as-is
		ctx.Set(i.outs[0], d)
		return nil
	}
	blk, err := mo.Acquire()
	if err != nil {
		return err
	}
	cm, _, accepted := compress.Compress(blk, compress.PlannerConfig{}, ctx.Config.Threads())
	if !accepted {
		ctx.Counters.Rejected.Add(1)
		ctx.RecordPlan(i.opcode, "reject", i.EstBytes, blk.InMemorySize())
		ctx.Set(i.outs[0], d)
		return nil
	}
	ctx.Counters.Compressions.Add(1)
	ctx.Counters.BytesUncompressed.Add(blk.InMemorySize())
	ctx.Counters.BytesCompressed.Add(cm.InMemorySize())
	ctx.RecordPlan(i.opcode, cm.EncodingSummary(), i.EstBytes, cm.InMemorySize())
	ctx.SetCompressed(i.outs[0], cm)
	return nil
}
