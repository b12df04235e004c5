package runtime

import (
	"github.com/systemds/systemds-go/internal/lineage"
	"github.com/systemds/systemds-go/internal/matrix"
)

// tryPartialReuse attempts to answer an instruction from the reuse cache via
// a compensation plan over cached sub-results (Section 3.1: partial reuse).
// Two patterns cover the stepwise-linear-regression workload of Example 1,
// where each iteration trains on cbind(Xg, x_new):
//
//	tsmm(cbind(A, B))   = [[tsmm(A), t(A)%*%B], [t(B)%*%A, tsmm(B)]]
//	U %*% cbind(A, B)   = cbind(U%*%A, U%*%B)
//
// When the result for the A-part is cached, only the (much cheaper) parts
// involving the newly added columns are computed.
func tryPartialReuse(ctx *Context, inst Instruction, inputItems []*lineage.Item, outItem *lineage.Item) (Data, bool) {
	switch inst.Opcode() {
	case "tsmm":
		return tryPartialTSMM(ctx, inst, inputItems)
	case "ba+*":
		return tryPartialMatMultOverCBind(ctx, inst, inputItems)
	default:
		return nil, false
	}
}

// tryPartialTSMM handles tsmm(X) where X was produced by cbind(A, B) and
// tsmm(A) is cached.
func tryPartialTSMM(ctx *Context, inst Instruction, inputItems []*lineage.Item) (Data, bool) {
	if len(inputItems) != 1 {
		return nil, false
	}
	cbindItem := inputItems[0]
	if cbindItem.Opcode != "cbind" || len(cbindItem.Inputs) != 2 {
		return nil, false
	}
	cachedAny, ok := ctx.Cache.Get(lineage.NewInstruction("tsmm", "", cbindItem.Inputs[0]))
	if !ok {
		return nil, false
	}
	cachedMO, ok := cachedAny.(*MatrixObject)
	if !ok {
		return nil, false
	}
	gramA, err := cachedMO.Acquire()
	if err != nil {
		return nil, false
	}
	// the full input X = cbind(A, B) is available as the instruction input
	x, err := ctx.GetMatrixBlockFor(inst.Inputs()[0], "reuse")
	if err != nil {
		return nil, false
	}
	k1 := gramA.Rows()
	if x.Cols() <= k1 {
		return nil, false
	}
	// Only the Gram rows of the new columns B are computed: t(B) %*% X =
	// [t(B)%*%A, t(B)%*%B] is the bottom block row, the top one is
	// [tsmm(A), t(t(B)%*%A)]. TSMMRows accumulates in the full TSMM's
	// order, so the assembled result is bitwise equal to it.
	tbx, err := matrix.TSMMRows(x, k1, ctx.Config.Threads())
	if err != nil {
		return nil, false
	}
	bta, err := matrix.Slice(tbx, 0, tbx.Rows(), 0, k1)
	if err != nil {
		return nil, false
	}
	top, err := matrix.CBind(gramA, matrix.Transpose(bta))
	if err != nil {
		return nil, false
	}
	out, err := matrix.RBind(top, tbx)
	if err != nil {
		return nil, false
	}
	return NewMatrixObject(out, ctx.Pool), true
}

// tryPartialMatMultOverCBind handles U %*% cbind(A, B) when U %*% A is
// cached: the missing columns are U %*% B. The left-transpose rewrite turns
// t(cbind(A, B)) %*% y into t(t(y) %*% cbind(A, B)), which lands here.
func tryPartialMatMultOverCBind(ctx *Context, inst Instruction, inputItems []*lineage.Item) (Data, bool) {
	if len(inputItems) != 2 {
		return nil, false
	}
	uItem, cbindItem := inputItems[0], inputItems[1]
	if cbindItem.Opcode != "cbind" || len(cbindItem.Inputs) != 2 {
		return nil, false
	}
	cachedAny, ok := ctx.Cache.Get(lineage.NewInstruction("ba+*", "", uItem, cbindItem.Inputs[0]))
	if !ok {
		return nil, false
	}
	cachedMO, ok := cachedAny.(*MatrixObject)
	if !ok {
		return nil, false
	}
	ua, err := cachedMO.Acquire()
	if err != nil {
		return nil, false
	}
	// inputs: U and X = cbind(A, B) are instruction input variables
	ins := inst.Inputs()
	if len(ins) != 2 {
		return nil, false
	}
	u, err := ctx.GetMatrixBlockFor(ins[0], "reuse")
	if err != nil {
		return nil, false
	}
	x, err := ctx.GetMatrixBlockFor(ins[1], "reuse")
	if err != nil {
		return nil, false
	}
	k1 := ua.Cols()
	if x.Cols() <= k1 {
		return nil, false
	}
	// columns k1..end of X are B
	b, err := matrix.Slice(x, 0, x.Rows(), k1, x.Cols())
	if err != nil {
		return nil, false
	}
	ub, err := matrix.Multiply(u, b, ctx.Config.Threads())
	if err != nil {
		return nil, false
	}
	out, err := matrix.CBind(ua, ub)
	if err != nil {
		return nil, false
	}
	return NewMatrixObject(out, ctx.Pool), true
}
