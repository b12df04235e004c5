package matrix

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultParallelism is the degree of parallelism used by multi-threaded
// kernels when the caller passes threads <= 0.
func DefaultParallelism() int { return runtime.NumCPU() }

func resolveThreads(threads int) int {
	if threads <= 0 {
		return DefaultParallelism()
	}
	return threads
}

// Multiply computes the matrix product a %*% b using the kernel matching the
// operand representations (dense-dense, sparse-dense, dense-sparse or
// sparse-sparse). The dense-dense kernels are the multi-threaded,
// cache-conscious kernels referred to as the "Java-like" kernel in DESIGN.md.
func Multiply(a, b *MatrixBlock, threads int) (*MatrixBlock, error) {
	if a.cols != b.rows {
		return nil, fmt.Errorf("matrix: multiply dimension mismatch %dx%d %%*%% %dx%d", a.rows, a.cols, b.rows, b.cols)
	}
	threads = resolveThreads(threads)
	var out *MatrixBlock
	switch {
	case a.IsSparse() && b.IsSparse():
		out = multSparseSparse(a, b, threads)
	case a.IsSparse():
		out = multSparseDense(a, b, threads)
	case b.IsSparse():
		out = multDenseSparse(a, b, threads)
	default:
		out = NewDense(a.rows, b.cols)
		// the dense kernel IS one accumulate pass into a zeroed output;
		// sharing gemmAcc keeps its per-cell accumulation order structurally
		// identical to MultiplyAcc (the bitwise-equality contract of the
		// blocked shuffle/broadcast-left executors)
		out.nnz = gemmAcc(out, a, b, threads)
	}
	return out, nil
}

// asDense returns m itself when already dense, or a fresh dense block
// densified directly from the sparse structure — no intermediate sparse copy.
func asDense(m *MatrixBlock) *MatrixBlock {
	if !m.IsSparse() {
		return m
	}
	out := NewDense(m.rows, m.cols)
	s := m.csr()
	for r := 0; r < m.rows; r++ {
		base := r * m.cols
		for p := s.RowPtr[r]; p < s.RowPtr[r+1]; p++ {
			out.dense[base+s.ColIdx[p]] = s.Values[p]
		}
	}
	out.nnz = m.nnz
	return out
}

// parallelRows partitions [0, rows) into contiguous chunks and runs fn on
// each chunk in its own goroutine. Rows are distributed evenly: chunk sizes
// differ by at most one row and exactly min(threads, rows) workers launch, so
// no worker receives a short or empty chunk. Chunk boundaries depend only on
// (rows, threads); every kernel built on parallelRows writes disjoint output
// cells with a fixed per-cell order, so results do not depend on the
// partition at all.
func parallelRows(rows, threads int, fn func(r0, r1 int)) {
	if threads <= 1 || rows <= 1 {
		fn(0, rows)
		return
	}
	if threads > rows {
		threads = rows
	}
	base, rem := rows/threads, rows%threads
	var wg sync.WaitGroup
	r0 := 0
	for t := 0; t < threads; t++ {
		r1 := r0 + base
		if t < rem {
			r1++
		}
		wg.Add(1)
		go func(r0, r1 int) {
			defer wg.Done()
			fn(r0, r1)
		}(r0, r1)
		r0 = r1
	}
	wg.Wait()
}

// countRowRangeNNZ counts the non-zeros of rows [r0, r1) of a dense n-column
// output while the range is still cache-hot, so kernels can set the tracked
// nnz during their final write loop instead of re-scanning the whole output.
func countRowRangeNNZ(cv []float64, n, r0, r1 int) int64 {
	var cnt int64
	for i := r0 * n; i < r1*n; i++ {
		if cv[i] != 0 {
			cnt++
		}
	}
	return cnt
}

// gemmAcc accumulates dense(a) %*% dense(b) into the dense accumulator with
// the kernel MatMultKernel names for the shape — the matrix-vector and
// vector-matrix kernels for n == 1 and m == 1, the tiled engine (gemm.go)
// above TiledGEMMCrossoverFLOPs, the simple blocked loop below it — and
// returns the recounted non-zero total. It is the single dispatch behind the
// standard Multiply dense path and MultiplyAcc. All kernels add each output
// cell's contributions one at a time in ascending-k order, so they are
// bitwise interchangeable for finite inputs and the stripe-accumulation
// contract holds across every switch (a stripe small enough for the simple
// loop accumulates onto a tiled full product without any drift).
func gemmAcc(acc, a, b *MatrixBlock, threads int) int64 {
	switch MatMultKernel(a.rows, a.cols, b.cols) {
	case kernelMV:
		return accMatVec(acc, a, b, threads)
	case kernelVM:
		return accVecMat(acc, a, b)
	case kernelTiled:
		return accDenseDenseTiled(acc, a, b, threads)
	}
	return accDenseDense(acc, a, b, threads)
}

// accMatVec accumulates dense(a) %*% dense(v) for an m x k a and a k x 1 v:
// one dot product per row, four rows per pass over v with one accumulator
// per row (independent add chains share each load of v). Each accumulator
// starts from its output cell and adds the terms in ascending k, so a
// MultiplyAcc k-stripe continues the one-shot sum exactly. There is no a==0
// skip: on data with scattered zeros the branch mispredicts more than the
// multiply costs, and like the tiled engine the extra 0*v terms cannot change
// a finite sum.
func accMatVec(acc, a, v *MatrixBlock, threads int) int64 {
	m, k := a.rows, a.cols
	av, vv, cv := a.dense, v.dense[:k], acc.dense
	if m*k < parallelMinCells {
		threads = 1
	}
	var nnz atomic.Int64
	parallelRows(m, threads, func(r0, r1 int) {
		i := r0
		for ; i+4 <= r1; i += 4 {
			a0 := av[i*k : (i+1)*k][:len(vv)]
			a1 := av[(i+1)*k : (i+2)*k][:len(vv)]
			a2 := av[(i+2)*k : (i+3)*k][:len(vv)]
			a3 := av[(i+3)*k : (i+4)*k][:len(vv)]
			s0, s1, s2, s3 := cv[i], cv[i+1], cv[i+2], cv[i+3]
			for p, x := range vv {
				s0 += float64(a0[p] * x)
				s1 += float64(a1[p] * x)
				s2 += float64(a2[p] * x)
				s3 += float64(a3[p] * x)
			}
			cv[i], cv[i+1], cv[i+2], cv[i+3] = s0, s1, s2, s3
		}
		for ; i < r1; i++ {
			ai := av[i*k : (i+1)*k][:len(vv)]
			s := cv[i]
			for p, x := range vv {
				s += float64(ai[p] * x)
			}
			cv[i] = s
		}
		nnz.Add(countRowRangeNNZ(cv, 1, r0, r1))
	})
	return nnz.Load()
}

// accVecMat accumulates dense(u) %*% dense(b) for a 1 x k u and a k x n b:
// an axpy of the rows of b onto the output row, four b rows per pass
// (c[j] = c[j] + u0*b0[j] + u1*b1[j] + ..., added one term at a time), so
// every output cell sees its terms in ascending k from its own start value.
// It runs on one thread: at the output widths the gradient loops produce (a
// few hundred columns) a column split buys no wall time and costs CPU.
func accVecMat(acc, u, b *MatrixBlock) int64 {
	k, n := u.cols, b.cols
	uv, bv, c := u.dense[:k], b.dense, acc.dense[:n]
	p := 0
	for ; p+4 <= k; p += 4 {
		x0, x1, x2, x3 := uv[p], uv[p+1], uv[p+2], uv[p+3]
		b0 := bv[p*n : (p+1)*n][:len(c)]
		b1 := bv[(p+1)*n : (p+2)*n][:len(c)]
		b2 := bv[(p+2)*n : (p+3)*n][:len(c)]
		b3 := bv[(p+3)*n : (p+4)*n][:len(c)]
		for j, s := range c {
			s += float64(x0 * b0[j])
			s += float64(x1 * b1[j])
			s += float64(x2 * b2[j])
			s += float64(x3 * b3[j])
			c[j] = s
		}
	}
	for ; p < k; p++ {
		x := uv[p]
		bp := bv[p*n : (p+1)*n][:len(c)]
		for j := range c {
			c[j] += float64(x * bp[j])
		}
	}
	return countRowRangeNNZ(c, 1, 0, n)
}

// accDenseDense accumulates dense(a) %*% dense(b) into the dense accumulator
// with i-k-j loop order, cache blocking over k and j, and contributions
// arriving in ascending k order per output cell. It is the below-crossover
// kernel behind gemmAcc, and returns the recounted non-zero total of the
// accumulator.
func accDenseDense(acc, a, b *MatrixBlock, threads int) int64 {
	m, k, n := a.rows, a.cols, b.cols
	av, bv, cv := a.dense, b.dense, acc.dense
	var nnz atomic.Int64
	const blkK, blkJ = 64, 512
	parallelRows(m, threads, func(r0, r1 int) {
		for kk := 0; kk < k; kk += blkK {
			kmax := min(kk+blkK, k)
			for jj := 0; jj < n; jj += blkJ {
				jmax := min(jj+blkJ, n)
				for i := r0; i < r1; i++ {
					ci := cv[i*n : (i+1)*n]
					ai := av[i*k : (i+1)*k]
					for kp := kk; kp < kmax; kp++ {
						aval := ai[kp]
						if aval == 0 {
							continue
						}
						brow := bv[kp*n : (kp+1)*n]
						for j := jj; j < jmax; j++ {
							ci[j] += float64(aval * brow[j])
						}
					}
				}
			}
		}
		nnz.Add(countRowRangeNNZ(cv, n, r0, r1))
	})
	return nnz.Load()
}

// multSparseDense computes sparse(a) %*% dense(b).
func multSparseDense(a, b *MatrixBlock, threads int) *MatrixBlock {
	m, n := a.rows, b.cols
	out := NewDense(m, n)
	s := a.csr()
	bv, cv := b.dense, out.dense
	var nnz atomic.Int64
	parallelRows(m, threads, func(r0, r1 int) {
		for i := r0; i < r1; i++ {
			ci := cv[i*n : (i+1)*n]
			for p := s.RowPtr[i]; p < s.RowPtr[i+1]; p++ {
				kp, aval := s.ColIdx[p], s.Values[p]
				brow := bv[kp*n : (kp+1)*n]
				for j := 0; j < n; j++ {
					ci[j] += float64(aval * brow[j])
				}
			}
		}
		nnz.Add(countRowRangeNNZ(cv, n, r0, r1))
	})
	out.nnz = nnz.Load()
	return out
}

// multDenseSparse computes dense(a) %*% sparse(b).
func multDenseSparse(a, b *MatrixBlock, threads int) *MatrixBlock {
	m, k, n := a.rows, a.cols, b.cols
	out := NewDense(m, n)
	s := b.csr()
	av, cv := a.dense, out.dense
	var nnz atomic.Int64
	parallelRows(m, threads, func(r0, r1 int) {
		for i := r0; i < r1; i++ {
			ci := cv[i*n : (i+1)*n]
			ai := av[i*k : (i+1)*k]
			for kp := 0; kp < k; kp++ {
				aval := ai[kp]
				if aval == 0 {
					continue
				}
				for p := s.RowPtr[kp]; p < s.RowPtr[kp+1]; p++ {
					ci[s.ColIdx[p]] += float64(aval * s.Values[p])
				}
			}
		}
		nnz.Add(countRowRangeNNZ(cv, n, r0, r1))
	})
	out.nnz = nnz.Load()
	return out
}

// multSparseSparse computes sparse(a) %*% sparse(b) into a dense output
// (products of moderately sparse matrices are typically much denser).
func multSparseSparse(a, b *MatrixBlock, threads int) *MatrixBlock {
	m, n := a.rows, b.cols
	out := NewDense(m, n)
	sa, sb := a.csr(), b.csr()
	cv := out.dense
	var nnz atomic.Int64
	parallelRows(m, threads, func(r0, r1 int) {
		for i := r0; i < r1; i++ {
			ci := cv[i*n : (i+1)*n]
			for p := sa.RowPtr[i]; p < sa.RowPtr[i+1]; p++ {
				kp, aval := sa.ColIdx[p], sa.Values[p]
				for q := sb.RowPtr[kp]; q < sb.RowPtr[kp+1]; q++ {
					ci[sb.ColIdx[q]] += float64(aval * sb.Values[q])
				}
			}
		}
		nnz.Add(countRowRangeNNZ(cv, n, r0, r1))
	})
	out.nnz = nnz.Load()
	out.ExamineAndApplySparsity()
	return out
}

// MultiplyAcc accumulates a %*% b into acc (acc += a %*% b). The kernel
// mirrors the dense GEMM loop order exactly, so for every output cell the
// contributions arrive in ascending k order: splitting the common dimension
// into stripes and accumulating them with MultiplyAcc in ascending stripe
// order is bitwise-identical to one Multiply over the full common dimension.
// This is the legality property the shuffle-style blocked matmult relies on.
// The accumulator is densified in place; sparse inputs are multiplied through
// densified copies so the accumulation order stays the same.
func MultiplyAcc(acc, a, b *MatrixBlock, threads int) error {
	if a.cols != b.rows {
		return fmt.Errorf("matrix: multiply-acc dimension mismatch %dx%d %%*%% %dx%d", a.rows, a.cols, b.rows, b.cols)
	}
	if acc.rows != a.rows || acc.cols != b.cols {
		return fmt.Errorf("matrix: multiply-acc accumulator is %dx%d, want %dx%d", acc.rows, acc.cols, a.rows, b.cols)
	}
	acc.ToDense()
	ad, bd := asDense(a), asDense(b)
	acc.nnz = gemmAcc(acc, ad, bd, resolveThreads(threads))
	return nil
}

// TSMM computes t(X) %*% X directly without materializing the transpose.
// This is the fused operator the HOP rewrite t(X)%*%X -> tsmm maps to, and
// the operation at the heart of the paper's lmDS workload.
func TSMM(x *MatrixBlock, threads int) *MatrixBlock {
	threads = resolveThreads(threads)
	n := x.cols
	out := NewDense(n, n)
	if x.IsSparse() {
		tsmmSparse(x, out, threads)
	} else {
		tsmmDense(x, out, threads)
	}
	// mirror the upper triangle into the lower triangle, counting non-zeros
	// in the same pass (each off-diagonal non-zero appears twice)
	cv := out.dense
	var nnz int64
	for i := 0; i < n; i++ {
		if cv[i*n+i] != 0 {
			nnz++
		}
		for j := i + 1; j < n; j++ {
			cv[j*n+i] = cv[i*n+j]
			if cv[i*n+j] != 0 {
				nnz += 2
			}
		}
	}
	out.nnz = nnz
	return out
}

// TSMM's fixed row chunking: about tsmmChunkRows rows per chunk, at most
// tsmmMaxChunks chunks.
const (
	tsmmChunkRows = 1024
	tsmmMaxChunks = 64
)

// tsmmChunks is TSMM's row partitioning: the number of row chunks and the
// rows per chunk, functions of the row count alone so the per-cell sum order
// (chunk partials added in chunk order) is the same for every thread count.
func tsmmChunks(m int) (numChunks, chunk int) {
	return fixedChunks(m, tsmmChunkRows, tsmmMaxChunks)
}

// tsmmChunked is TSMM's row-parallel loop: nw = min(threads, chunks) workers
// claim tsmmChunks' row chunks in ascending order, each chunk accumulates
// into a private zeroed pooled n x n buffer, and the buffers are added onto
// out strictly in chunk order as soon as their predecessors are in. A worker
// does not start chunk ci until ci < next + nw (next being the first chunk
// not yet added), so at most nw buffers are live — as many as one buffer per
// thread — however unevenly the chunks finish.
func tsmmChunked(out *MatrixBlock, m, threads int, chunkFn func(buf []float64, r0, r1 int)) {
	cv := out.dense
	num, size := tsmmChunks(m)
	nw := chunkWorkers(num, threads, m*out.cols)
	var mu sync.Mutex
	added := sync.NewCond(&mu)
	done := make([]*gemmBuf, num)
	next := 0 // first chunk not yet added onto out
	runChunks(m, num, size, nw, func(_, ci, r0, r1 int) {
		mu.Lock()
		for ci >= next+nw {
			added.Wait()
		}
		mu.Unlock()
		buf := gemmZeroBuf(len(cv))
		chunkFn(buf.f, r0, r1)
		mu.Lock()
		defer mu.Unlock()
		done[ci] = buf
		for ; next < num && done[next] != nil; next++ {
			for i, v := range done[next].f {
				cv[i] += v
			}
			gemmPutBuf(done[next])
			done[next] = nil
		}
		added.Broadcast()
	})
}

// TSMMRows returns rows k1.. of TSMM(x, threads), i.e. t(x[,k1:]) %*% x,
// without computing the rest of the Gram matrix. It sums per-chunk products
// over TSMM's row chunks in TSMM's order, so the result is bitwise equal to
// those rows of the full TSMM; partial lineage reuse assembles
// tsmm(cbind(A, B)) from a cached tsmm(A) with it.
func TSMMRows(x *MatrixBlock, k1, threads int) (*MatrixBlock, error) {
	m, n := x.rows, x.cols
	if k1 < 0 || k1 > n {
		return nil, fmt.Errorf("matrix: TSMMRows start column %d outside [0, %d]", k1, n)
	}
	threads = resolveThreads(threads)
	out := NewDense(n-k1, n)
	_, chunk := tsmmChunks(m)
	for r0 := 0; r0 < m; r0 += chunk {
		r1 := min(r0+chunk, m)
		xc, err := Slice(x, r0, r1, 0, n)
		if err != nil {
			return nil, err
		}
		bc, err := Slice(xc, 0, r1-r0, k1, n)
		if err != nil {
			return nil, err
		}
		p, err := Multiply(Transpose(bc), xc, threads)
		if err != nil {
			return nil, err
		}
		for i, v := range p.DenseValues() {
			out.dense[i] += v
		}
	}
	out.RecomputeNNZ()
	return out, nil
}

// tsmmDense accumulates each row chunk through the tiled engine or the simple
// triangular loop, as TSMMKernel decides for the whole product — identical
// per-cell ascending-row accumulation order either way.
func tsmmDense(x, out *MatrixBlock, threads int) {
	n, xv := x.cols, x.dense
	tiled := TSMMKernel(x.rows, n) == kernelTiled
	tsmmChunked(out, x.rows, threads, func(buf []float64, r0, r1 int) {
		if tiled {
			tsmmTiledChunk(buf, xv, n, r0, r1)
		} else {
			tsmmSimpleChunk(buf, xv, n, r0, r1)
		}
	})
}

// tsmmSimpleChunk accumulates the upper triangle of t(Xc) %*% Xc for the row
// chunk [r0, r1) of x into buf: per row, every pairwise column product with
// j >= i, rows ascending — the per-cell order the tiled chunk kernel
// reproduces exactly.
func tsmmSimpleChunk(buf, xv []float64, n, r0, r1 int) {
	for r := r0; r < r1; r++ {
		row := xv[r*n : (r+1)*n]
		for i := 0; i < n; i++ {
			vi := row[i]
			if vi == 0 {
				continue
			}
			bi := buf[i*n:]
			for j := i; j < n; j++ {
				bi[j] += float64(vi * row[j])
			}
		}
	}
}

func tsmmSparse(x, out *MatrixBlock, threads int) {
	n, s := x.cols, x.csr()
	tsmmChunked(out, x.rows, threads, func(buf []float64, r0, r1 int) {
		for r := r0; r < r1; r++ {
			lo, hi := s.RowPtr[r], s.RowPtr[r+1]
			for p := lo; p < hi; p++ {
				ci, vi := s.ColIdx[p], s.Values[p]
				bi := buf[ci*n:]
				for q := p; q < hi; q++ {
					bi[s.ColIdx[q]] += float64(vi * s.Values[q])
				}
			}
		}
	})
}
