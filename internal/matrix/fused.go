package matrix

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
)

// This file implements the single-pass fused operator kernels of the fusion
// subsystem (DESIGN.md, "Fused operator pipelines"): cellwise-aggregate
// pipelines described by a CellProgram and evaluated by FusedAgg without
// materializing any full-size intermediate, and the mmchain kernel computing
// t(X) %*% (X %*% v) and t(X) %*% (w * (X %*% v)) in one pass over X.
//
// All fused kernels use fixed-chunk row partitioning: chunk boundaries depend
// only on the row count, partial aggregates are combined in chunk order, and
// rows are accumulated left-to-right within a chunk, so results are bitwise
// reproducible across thread counts.

// AggKind identifies the aggregate applied on top of a fused cellwise
// pipeline.
type AggKind int

// Supported fused aggregates.
const (
	AggSum AggKind = iota
	AggMin
	AggMax
	AggColSums
	AggRowSums
)

// String returns the DML name of the aggregate.
func (a AggKind) String() string {
	switch a {
	case AggSum:
		return "sum"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggColSums:
		return "colSums"
	case AggRowSums:
		return "rowSums"
	default:
		return "?"
	}
}

// CellOpCode classifies one instruction of a cell program.
type CellOpCode uint8

// Cell program instruction codes.
const (
	// CellLoad pushes the value of argument Arg at the current cell.
	CellLoad CellOpCode = iota
	// CellUnary replaces the top of the stack with Un applied to it.
	CellUnary
	// CellBinary pops the right then left operand and pushes Bin(left, right).
	CellBinary
)

// CellInstr is one instruction of a cell program.
type CellInstr struct {
	Code CellOpCode
	Arg  int      // argument index for CellLoad
	Un   UnaryOp  // operation for CellUnary
	Bin  BinaryOp // operation for CellBinary
}

// CellMaxStack bounds the evaluation stack of a cell program; the HOP matcher
// refuses to fuse deeper expression trees.
const CellMaxStack = 8

// CellMaxInstrs bounds the length of a cell program.
const CellMaxInstrs = 64

// CellProgram is a stack program evaluated once per cell of the fused
// pipeline: arguments are the leaf operands (matrices of identical shape, or
// scalars), interior instructions are the fused cellwise operations. Programs
// are produced by the HOP-level pattern matcher (hops.FuseOperators).
type CellProgram struct {
	Instrs  []CellInstr
	NumArgs int
	// Annihilating reports the structural guarantee that the program
	// evaluates to exactly 0 whenever the driver argument (the first matrix
	// argument) is 0, regardless of the other arguments. It enables the
	// sparse-driver iteration that skips non-stored cells (sparse-safe
	// semantics: non-stored cells are treated as exact zeros, so Inf/NaN
	// values of other operands at those cells are ignored).
	Annihilating bool
}

// IdentityProgram returns the single-argument pass-through program (the plain
// aggregation over one matrix).
func IdentityProgram() *CellProgram {
	return &CellProgram{
		Instrs:       []CellInstr{{Code: CellLoad, Arg: 0}},
		NumArgs:      1,
		Annihilating: true,
	}
}

// Validate checks stack discipline and argument bounds.
func (p *CellProgram) Validate() error {
	if len(p.Instrs) == 0 || len(p.Instrs) > CellMaxInstrs {
		return fmt.Errorf("matrix: cell program has %d instructions (want 1..%d)", len(p.Instrs), CellMaxInstrs)
	}
	depth := 0
	for i, ins := range p.Instrs {
		switch ins.Code {
		case CellLoad:
			if ins.Arg < 0 || ins.Arg >= p.NumArgs {
				return fmt.Errorf("matrix: cell instr %d loads argument %d of %d", i, ins.Arg, p.NumArgs)
			}
			depth++
			if depth > CellMaxStack {
				return fmt.Errorf("matrix: cell program exceeds max stack depth %d", CellMaxStack)
			}
		case CellUnary:
			if depth < 1 {
				return fmt.Errorf("matrix: cell instr %d underflows the stack", i)
			}
		case CellBinary:
			if depth < 2 {
				return fmt.Errorf("matrix: cell instr %d underflows the stack", i)
			}
			depth--
		default:
			return fmt.Errorf("matrix: cell instr %d has unknown code %d", i, ins.Code)
		}
	}
	if depth != 1 {
		return fmt.Errorf("matrix: cell program leaves %d values on the stack", depth)
	}
	return nil
}

// Signature renders a canonical description of the program, used as lineage
// data so that two fused instructions with different programs never share a
// lineage entry, and for EXPLAIN output.
func (p *CellProgram) Signature() string {
	var sb strings.Builder
	for i, ins := range p.Instrs {
		if i > 0 {
			sb.WriteByte(';')
		}
		switch ins.Code {
		case CellLoad:
			fmt.Fprintf(&sb, "L%d", ins.Arg)
		case CellUnary:
			fmt.Fprintf(&sb, "U%s", ins.Un)
		case CellBinary:
			fmt.Fprintf(&sb, "B%s", ins.Bin)
		}
	}
	return sb.String()
}

// CellArg is one operand of a fused pipeline: a matrix block, or a scalar
// (Mat == nil).
type CellArg struct {
	Mat    *MatrixBlock
	Scalar float64
}

// --- deterministic fixed-chunk row partitioning -----------------------------

const (
	// fusedChunkRows is the target rows per chunk; boundaries depend only on
	// the row count so results are reproducible across thread counts.
	fusedChunkRows = 128
	// fusedMaxChunks caps the number of chunk partials.
	fusedMaxChunks = 256
	// parallelMinCells is the matrix size below which kernels stay
	// single-threaded (goroutine overhead dominates on small operands).
	parallelMinCells = 16 * 1024
)

// fusedChunks derives the fixed chunking of a row range: the number of chunks
// and the chunk size, both functions of rows alone.
func fusedChunks(rows int) (num, size int) {
	return fixedChunks(rows, fusedChunkRows, fusedMaxChunks)
}

// fixedChunks splits rows into at most maxChunks near-equal chunks of about
// target rows; the result depends on its arguments alone, never on the
// thread count.
func fixedChunks(rows, target, maxChunks int) (num, size int) {
	if rows <= 0 {
		return 0, 0
	}
	num = min((rows+target-1)/target, maxChunks)
	size = (rows + num - 1) / num
	num = (rows + size - 1) / size
	return num, size
}

// chunkWorkers resolves the worker count for a chunked run.
func chunkWorkers(num, threads, cells int) int {
	threads = resolveThreads(threads)
	if cells < parallelMinCells {
		return 1
	}
	if threads > num {
		threads = num
	}
	if threads < 1 {
		threads = 1
	}
	return threads
}

// runChunks executes fn(worker, chunk, r0, r1) for every fixed chunk of
// [0, rows), on nw workers. Chunks are claimed dynamically but identified by
// index, so chunk-order combination stays deterministic.
func runChunks(rows, num, size, nw int, fn func(worker, chunk, r0, r1 int)) {
	if num == 0 {
		return
	}
	bounds := func(ci int) (int, int) {
		r0 := ci * size
		r1 := min(r0+size, rows)
		return r0, r1
	}
	if nw <= 1 {
		for ci := 0; ci < num; ci++ {
			r0, r1 := bounds(ci)
			fn(0, ci, r0, r1)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				ci := int(next.Add(1)) - 1
				if ci >= num {
					return
				}
				r0, r1 := bounds(ci)
				fn(w, ci, r0, r1)
			}
		}(w)
	}
	wg.Wait()
}

// --- fused cellwise-aggregate kernel ---------------------------------------

// evalKind classifies a program for the specialized row loops.
type evalKind uint8

const (
	evalIdentity evalKind = iota // [Load a]
	evalUnary                    // [Load a, Unary]
	evalBinary                   // [Load a, Load b, Binary]
	evalGeneral                  // anything else (stack interpreter)
)

func classify(p *CellProgram) (kind evalKind, a, b int, un UnaryOp, bin BinaryOp) {
	ins := p.Instrs
	switch {
	case len(ins) == 1 && ins[0].Code == CellLoad:
		return evalIdentity, ins[0].Arg, 0, 0, 0
	case len(ins) == 2 && ins[0].Code == CellLoad && ins[1].Code == CellUnary:
		return evalUnary, ins[0].Arg, 0, ins[1].Un, 0
	case len(ins) == 3 && ins[0].Code == CellLoad && ins[1].Code == CellLoad && ins[2].Code == CellBinary:
		return evalBinary, ins[0].Arg, ins[1].Arg, 0, ins[2].Bin
	default:
		return evalGeneral, 0, 0, 0, 0
	}
}

// aggWorker holds the per-worker scratch state of one FusedAgg execution.
type aggWorker struct {
	rowBuf  []float64   // cell values of the current row (dense driver)
	scratch [][]float64 // expanded rows of sparse non-driver arguments
	rows    [][]float64 // per-arg current row slice (nil -> scalar)
	consts  []float64   // per-arg scalar value (driver slot reused sparsely)
	stack   []float64   // evaluation stack for general programs
}

// fusedRun is the shared immutable state of one FusedAgg execution.
type fusedRun struct {
	prog   *CellProgram
	args   []CellArg
	csrs   []*CSR // pre-compacted CSR of sparse matrix args (nil otherwise)
	rows   int
	cols   int
	driver int  // index of the first matrix argument
	sparse bool // iterate the driver's stored cells only
	kind   evalKind
	a, b   int
	un     UnaryOp
	bin    BinaryOp
}

func (fr *fusedRun) newWorker() *aggWorker {
	w := &aggWorker{
		rows:   make([][]float64, len(fr.args)),
		consts: make([]float64, len(fr.args)),
	}
	// identity programs over a matrix argument reuse the argument's own row;
	// everything else (including identity over a scalar) needs the row buffer
	needBuf := !(fr.kind == evalIdentity && fr.args[fr.a].Mat != nil)
	for i, a := range fr.args {
		if a.Mat == nil {
			w.consts[i] = a.Scalar
		}
	}
	if !fr.sparse && needBuf {
		w.rowBuf = make([]float64, fr.cols)
	}
	if fr.kind == evalGeneral {
		w.stack = make([]float64, CellMaxStack)
	}
	w.scratch = make([][]float64, len(fr.args))
	return w
}

// loadRow points the per-arg row slices at row r. Sparse non-driver arguments
// are expanded into per-worker scratch rows; in sparse-driver mode the driver
// slot stays nil and its value is fed per stored cell.
func (fr *fusedRun) loadRow(w *aggWorker, r int) {
	for i, a := range fr.args {
		if a.Mat == nil {
			w.rows[i] = nil
			continue
		}
		if fr.sparse && i == fr.driver {
			w.rows[i] = nil
			continue
		}
		if s := fr.csrs[i]; s != nil {
			if w.scratch[i] == nil {
				w.scratch[i] = make([]float64, fr.cols)
			}
			buf := w.scratch[i]
			for c := range buf {
				buf[c] = 0
			}
			for p := s.RowPtr[r]; p < s.RowPtr[r+1]; p++ {
				buf[s.ColIdx[p]] = s.Values[p]
			}
			w.rows[i] = buf
		} else {
			w.rows[i] = a.Mat.dense[r*fr.cols : (r+1)*fr.cols]
		}
	}
}

// evalDenseRow computes the cell values of the loaded row into a slice of
// length cols. For identity programs over a dense argument the argument's own
// row is returned without copying.
func (fr *fusedRun) evalDenseRow(w *aggWorker) []float64 {
	switch fr.kind {
	case evalIdentity:
		if rs := w.rows[fr.a]; rs != nil {
			return rs
		}
		dst := w.rowBuf
		v := w.consts[fr.a]
		for c := range dst {
			dst[c] = v
		}
		return dst
	case evalUnary:
		dst := w.rowBuf
		if rs := w.rows[fr.a]; rs != nil {
			for c := range dst {
				dst[c] = fr.un.Apply(rs[c])
			}
		} else {
			v := fr.un.Apply(w.consts[fr.a])
			for c := range dst {
				dst[c] = v
			}
		}
		return dst
	case evalBinary:
		dst := w.rowBuf
		ra, rb := w.rows[fr.a], w.rows[fr.b]
		switch {
		case ra != nil && rb != nil:
			switch fr.bin {
			case OpMul:
				for c := range dst {
					dst[c] = ra[c] * rb[c]
				}
			case OpAdd:
				for c := range dst {
					dst[c] = ra[c] + rb[c]
				}
			case OpSub:
				for c := range dst {
					dst[c] = ra[c] - rb[c]
				}
			default:
				for c := range dst {
					dst[c] = fr.bin.Apply(ra[c], rb[c])
				}
			}
		case ra != nil:
			cb := w.consts[fr.b]
			for c := range dst {
				dst[c] = fr.bin.Apply(ra[c], cb)
			}
		case rb != nil:
			ca := w.consts[fr.a]
			for c := range dst {
				dst[c] = fr.bin.Apply(ca, rb[c])
			}
		default:
			v := fr.bin.Apply(w.consts[fr.a], w.consts[fr.b])
			for c := range dst {
				dst[c] = v
			}
		}
		return dst
	default:
		dst := w.rowBuf
		for c := range dst {
			dst[c] = fr.evalCell(w, c, 0)
		}
		return dst
	}
}

// evalCell interprets the program at one cell; in sparse-driver mode dv is
// the driver's stored value at that cell.
func (fr *fusedRun) evalCell(w *aggWorker, c int, dv float64) float64 {
	sp := 0
	for _, ins := range fr.prog.Instrs {
		switch ins.Code {
		case CellLoad:
			v := w.consts[ins.Arg]
			if rs := w.rows[ins.Arg]; rs != nil {
				v = rs[c]
			} else if fr.sparse && ins.Arg == fr.driver {
				v = dv
			}
			w.stack[sp] = v
			sp++
		case CellUnary:
			w.stack[sp-1] = ins.Un.Apply(w.stack[sp-1])
		case CellBinary:
			sp--
			w.stack[sp-1] = ins.Bin.Apply(w.stack[sp-1], w.stack[sp])
		}
	}
	return w.stack[0]
}

// evalSparseRow computes the cell values at the stored positions of the
// driver's row (given by cidx/dvals) into a slice of len(dvals). For identity
// programs the stored values are returned without copying.
func (fr *fusedRun) evalSparseRow(w *aggWorker, r int, cidx []int, dvals []float64) []float64 {
	if fr.kind == evalIdentity && fr.a == fr.driver {
		return dvals
	}
	if cap(w.rowBuf) < len(dvals) {
		w.rowBuf = make([]float64, len(dvals), max(len(dvals), fr.cols))
	}
	dst := w.rowBuf[:len(dvals)]
	switch fr.kind {
	case evalUnary:
		// fr.a == fr.driver (annihilation guarantees the driver is reached)
		for i, v := range dvals {
			dst[i] = fr.un.Apply(v)
		}
	case evalBinary:
		for i, v := range dvals {
			c := cidx[i]
			va, vb := v, v
			if fr.a != fr.driver {
				va = fr.argAt(w, fr.a, r, c)
			}
			if fr.b != fr.driver {
				vb = fr.argAt(w, fr.b, r, c)
			}
			dst[i] = fr.bin.Apply(va, vb)
		}
	default:
		if w.stack == nil {
			w.stack = make([]float64, CellMaxStack)
		}
		for i, v := range dvals {
			dst[i] = fr.evalCellSparse(w, r, cidx[i], v)
		}
	}
	return dst
}

// argAt reads argument arg at (r, c) in sparse-driver mode: scalars from the
// const table, dense matrices from their backing array, sparse matrices by
// CSR lookup.
func (fr *fusedRun) argAt(w *aggWorker, arg, r, c int) float64 {
	a := fr.args[arg]
	if a.Mat == nil {
		return w.consts[arg]
	}
	if s := fr.csrs[arg]; s != nil {
		return s.flatGet(r, c)
	}
	return a.Mat.dense[r*fr.cols+c]
}

// evalCellSparse interprets a general program at one stored driver cell.
func (fr *fusedRun) evalCellSparse(w *aggWorker, r, c int, dv float64) float64 {
	sp := 0
	for _, ins := range fr.prog.Instrs {
		switch ins.Code {
		case CellLoad:
			var v float64
			if ins.Arg == fr.driver {
				v = dv
			} else {
				v = fr.argAt(w, ins.Arg, r, c)
			}
			w.stack[sp] = v
			sp++
		case CellUnary:
			w.stack[sp-1] = ins.Un.Apply(w.stack[sp-1])
		case CellBinary:
			sp--
			w.stack[sp-1] = ins.Bin.Apply(w.stack[sp-1], w.stack[sp])
		}
	}
	return w.stack[0]
}

// FusedAgg evaluates a fused cellwise-aggregate pipeline in a single pass
// over the inputs: the cell program is evaluated per cell and the results
// flow directly into the aggregate, with no full-size intermediate. Full
// aggregates (sum, min, max) return a 1x1 block; colSums returns 1 x cols and
// rowSums returns rows x 1.
//
// When the driver argument (the first matrix argument) is sparse and the
// program annihilates on it, only the driver's stored cells are visited
// (sparse-safe semantics). Results are reproducible across thread counts:
// partial aggregates are formed over fixed row chunks and combined in chunk
// order.
func FusedAgg(prog *CellProgram, agg AggKind, args []CellArg, threads int) (*MatrixBlock, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if len(args) != prog.NumArgs {
		return nil, fmt.Errorf("matrix: fused agg got %d arguments, program wants %d", len(args), prog.NumArgs)
	}
	fr := &fusedRun{prog: prog, args: args, driver: -1, csrs: make([]*CSR, len(args))}
	for i, a := range args {
		if a.Mat == nil {
			continue
		}
		if fr.driver < 0 {
			fr.driver = i
			fr.rows, fr.cols = a.Mat.rows, a.Mat.cols
		} else if a.Mat.rows != fr.rows || a.Mat.cols != fr.cols {
			return nil, fmt.Errorf("matrix: fused agg argument %d is %dx%d, want %dx%d",
				i, a.Mat.rows, a.Mat.cols, fr.rows, fr.cols)
		}
	}
	if fr.driver < 0 {
		return nil, fmt.Errorf("matrix: fused agg requires at least one matrix argument")
	}
	// pre-compact sparse structures once, single-threaded, so workers only
	// perform lock-free reads
	for i, a := range args {
		if a.Mat != nil && a.Mat.IsSparse() {
			fr.csrs[i] = a.Mat.csr()
		}
	}
	fr.sparse = fr.csrs[fr.driver] != nil && prog.Annihilating
	fr.kind, fr.a, fr.b, fr.un, fr.bin = classify(prog)

	num, size := fusedChunks(fr.rows)
	nw := chunkWorkers(num, threads, fr.rows*fr.cols)
	workers := make([]*aggWorker, nw)
	worker := func(wi int) *aggWorker {
		if workers[wi] == nil {
			workers[wi] = fr.newWorker()
		}
		return workers[wi]
	}
	ds := fr.csrs[fr.driver] // nil unless the driver is sparse

	switch agg {
	case AggSum, AggMin, AggMax:
		partials := make([]float64, num)
		runChunks(fr.rows, num, size, nw, func(wi, ci, r0, r1 int) {
			w := worker(wi)
			acc := aggInit(agg)
			for r := r0; r < r1; r++ {
				var vals []float64
				if fr.sparse {
					lo, hi := ds.RowPtr[r], ds.RowPtr[r+1]
					vals = fr.evalSparseRow(w, r, ds.ColIdx[lo:hi], ds.Values[lo:hi])
				} else {
					fr.loadRow(w, r)
					vals = fr.evalDenseRow(w)
				}
				switch agg {
				case AggSum:
					var rowAcc float64
					for _, v := range vals {
						rowAcc += v
					}
					acc += rowAcc
				case AggMin:
					for _, v := range vals {
						if v < acc {
							acc = v
						}
					}
				case AggMax:
					for _, v := range vals {
						if v > acc {
							acc = v
						}
					}
				}
			}
			partials[ci] = acc
		})
		acc := aggInit(agg)
		switch agg {
		case AggSum:
			acc = 0
			for _, p := range partials {
				acc += p
			}
		case AggMin:
			for _, p := range partials {
				if p < acc {
					acc = p
				}
			}
		case AggMax:
			for _, p := range partials {
				if p > acc {
					acc = p
				}
			}
		}
		if fr.sparse && agg != AggSum {
			// skipped cells are exact zeros; fold them in once
			if int64(len(ds.Values)) < int64(fr.rows)*int64(fr.cols) {
				if agg == AggMin && 0 < acc {
					acc = 0
				}
				if agg == AggMax && 0 > acc {
					acc = 0
				}
			}
		}
		out := NewDense(1, 1)
		out.Set(0, 0, acc)
		return out, nil

	case AggRowSums:
		out := NewDense(fr.rows, 1)
		runChunks(fr.rows, num, size, nw, func(wi, ci, r0, r1 int) {
			w := worker(wi)
			for r := r0; r < r1; r++ {
				var vals []float64
				if fr.sparse {
					lo, hi := ds.RowPtr[r], ds.RowPtr[r+1]
					vals = fr.evalSparseRow(w, r, ds.ColIdx[lo:hi], ds.Values[lo:hi])
				} else {
					fr.loadRow(w, r)
					vals = fr.evalDenseRow(w)
				}
				var rowAcc float64
				for _, v := range vals {
					rowAcc += v
				}
				out.dense[r] = rowAcc
			}
		})
		out.RecomputeNNZ()
		return out, nil

	case AggColSums:
		out := NewDense(1, fr.cols)
		parts := make([][]float64, num)
		runChunks(fr.rows, num, size, nw, func(wi, ci, r0, r1 int) {
			w := worker(wi)
			buf := make([]float64, fr.cols)
			for r := r0; r < r1; r++ {
				if fr.sparse {
					lo, hi := ds.RowPtr[r], ds.RowPtr[r+1]
					cidx := ds.ColIdx[lo:hi]
					vals := fr.evalSparseRow(w, r, cidx, ds.Values[lo:hi])
					for i, v := range vals {
						buf[cidx[i]] += v
					}
				} else {
					fr.loadRow(w, r)
					vals := fr.evalDenseRow(w)
					for c, v := range vals {
						buf[c] += v
					}
				}
			}
			parts[ci] = buf
		})
		for _, buf := range parts {
			if buf == nil {
				continue
			}
			for c, v := range buf {
				out.dense[c] += v
			}
		}
		out.RecomputeNNZ()
		return out, nil
	}
	return nil, fmt.Errorf("matrix: unknown fused aggregate %d", agg)
}

func aggInit(agg AggKind) float64 {
	switch agg {
	case AggMin:
		return math.Inf(1)
	case AggMax:
		return math.Inf(-1)
	default:
		return 0
	}
}

// --- fused matrix-multiply chain -------------------------------------------

// MMChain computes t(X) %*% (X %*% v) — or t(X) %*% (w * (X %*% v)) when w
// is non-nil — in a single pass over X, without materializing the m x 1
// intermediate or the transpose: per row, the inner product with v is formed,
// optionally scaled by w[r], and scattered back onto the output through the
// same row. Partial outputs are accumulated per fixed row chunk and combined
// in chunk order (deterministic across thread counts).
func MMChain(x, v, w *MatrixBlock, threads int) (*MatrixBlock, error) {
	if v.cols != 1 || v.rows != x.cols {
		return nil, fmt.Errorf("matrix: mmchain vector is %dx%d, want %dx1", v.rows, v.cols, x.cols)
	}
	if w != nil && (w.cols != 1 || w.rows != x.rows) {
		return nil, fmt.Errorf("matrix: mmchain weights are %dx%d, want %dx1", w.rows, w.cols, x.rows)
	}
	m, n := x.rows, x.cols
	vd := vectorValues(v)
	var wd []float64
	if w != nil {
		wd = vectorValues(w)
	}
	var xs *CSR
	if x.IsSparse() {
		xs = x.csr()
	}
	num, size := fusedChunks(m)
	nw := chunkWorkers(num, threads, m*n)
	parts := make([][]float64, num)
	runChunks(m, num, size, nw, func(wi, ci, r0, r1 int) {
		buf := make([]float64, n)
		if xs != nil {
			for r := r0; r < r1; r++ {
				lo, hi := xs.RowPtr[r], xs.RowPtr[r+1]
				var dot float64
				for p := lo; p < hi; p++ {
					dot += float64(xs.Values[p] * vd[xs.ColIdx[p]])
				}
				if wd != nil {
					dot *= wd[r]
				}
				if dot == 0 {
					continue
				}
				for p := lo; p < hi; p++ {
					buf[xs.ColIdx[p]] += float64(dot * xs.Values[p])
				}
			}
		} else {
			// Register-blocked dense leg: four rows per step share one pass
			// over v, with four independent dot accumulators (breaking the
			// loop-carried add dependency of the row-at-a-time loop), then
			// scatter row by row in ascending order — each dot and each
			// buf[j] update sequence is exactly the one the single-row loop
			// produces, so results stay bitwise-identical.
			r := r0
			for ; r+4 <= r1; r += 4 {
				row0 := x.dense[r*n : (r+1)*n]
				row1 := x.dense[(r+1)*n : (r+2)*n]
				row2 := x.dense[(r+2)*n : (r+3)*n]
				row3 := x.dense[(r+3)*n : (r+4)*n]
				var d0, d1, d2, d3 float64
				for j, vj := range vd {
					d0 += float64(row0[j] * vj)
					d1 += float64(row1[j] * vj)
					d2 += float64(row2[j] * vj)
					d3 += float64(row3[j] * vj)
				}
				if wd != nil {
					d0 *= wd[r]
					d1 *= wd[r+1]
					d2 *= wd[r+2]
					d3 *= wd[r+3]
				}
				mmchainScatter(buf, row0, d0)
				mmchainScatter(buf, row1, d1)
				mmchainScatter(buf, row2, d2)
				mmchainScatter(buf, row3, d3)
			}
			for ; r < r1; r++ {
				row := x.dense[r*n : (r+1)*n]
				var dot float64
				for j, xv := range row {
					dot += float64(xv * vd[j])
				}
				if wd != nil {
					dot *= wd[r]
				}
				mmchainScatter(buf, row, dot)
			}
		}
		parts[ci] = buf
	})
	out := NewDense(n, 1)
	var nnz int64
	for j := 0; j < n; j++ {
		var acc float64
		for _, buf := range parts {
			if buf != nil {
				acc += buf[j]
			}
		}
		out.dense[j] = acc
		if acc != 0 {
			nnz++
		}
	}
	out.nnz = nnz
	return out, nil
}

// mmchainScatter accumulates dot * row into buf, skipping zero dots (the
// annihilation short-cut of the row-at-a-time mmchain loop).
func mmchainScatter(buf, row []float64, dot float64) {
	if dot == 0 {
		return
	}
	for j, xv := range row {
		buf[j] += float64(dot * xv)
	}
}

// vectorValues returns the dense values of a column vector (densifying
// sparse vectors directly into a fresh dense image; vectors are small
// relative to the fused pass).
func vectorValues(v *MatrixBlock) []float64 {
	return asDense(v).dense
}
