package matrix

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"
)

// forceKernel pins the dense GEMM kernel selection for the duration of a
// test and restores the previous mode on cleanup.
func forceKernel(t *testing.T, k GEMMKernel) {
	t.Helper()
	prev := SetGEMMKernel(k)
	t.Cleanup(func() { SetGEMMKernel(prev) })
}

// tileDims exercises every micro-tile edge class: 1, tile-1, tile, tile+1,
// and sizes that leave ragged tails against the MR/NR (4) and MC/KC panel
// parameters.
var tileDims = []int{1, 3, 4, 5, 67, 129}

// bitwiseEqual requires identical shapes, identical float64 bit patterns in
// every cell (== would let a signed zero through) and identical nnz.
func bitwiseEqual(t *testing.T, want, got *MatrixBlock, what string) {
	t.Helper()
	if want.Rows() != got.Rows() || want.Cols() != got.Cols() {
		t.Errorf("%s: result is %dx%d, want %dx%d", what, got.Rows(), got.Cols(), want.Rows(), want.Cols())
		return
	}
	for r := 0; r < want.Rows(); r++ {
		for c := 0; c < want.Cols(); c++ {
			if math.Float64bits(want.Get(r, c)) != math.Float64bits(got.Get(r, c)) {
				t.Errorf("%s: cell (%d,%d) = %v, want %v (bitwise)", what, r, c, got.Get(r, c), want.Get(r, c))
				return
			}
		}
	}
	if want.NNZ() != got.NNZ() {
		t.Errorf("%s: nnz = %d, want %d", what, got.NNZ(), want.NNZ())
	}
}

// TestTiledMultiplyBitwiseEqualsSimple is the core property of the tiled
// engine: for every ragged shape and thread count, the tiled kernel is
// bitwise-identical to the simple blocked loop (not just 1e-9), so swapping
// kernels at the crossover can never perturb a result.
func TestTiledMultiplyBitwiseEqualsSimple(t *testing.T) {
	for _, m := range tileDims {
		for _, k := range tileDims {
			for _, n := range tileDims {
				a := RandUniform(m, k, -1, 1, 1.0, int64(m*100+k*10+n))
				b := RandUniform(k, n, -1, 1, 1.0, int64(m+k*10+n*100))
				for _, threads := range []int{1, 4} {
					SetGEMMKernel(GEMMSimple)
					want, err := Multiply(a, b, threads)
					SetGEMMKernel(GEMMTiled)
					got, err2 := Multiply(a, b, threads)
					SetGEMMKernel(GEMMAuto)
					if err != nil || err2 != nil {
						t.Fatalf("%dx%dx%d: %v %v", m, k, n, err, err2)
					}
					bitwiseEqual(t, want, got, "multiply")
				}
			}
		}
	}
}

// TestTiledMultiplyLarge covers a shape comfortably above the auto crossover
// in one piece, so the production (auto) path is pinned against the simple
// loop at both thread counts.
func TestTiledMultiplyLarge(t *testing.T) {
	a := RandUniform(150, 140, -1, 1, 1.0, 71)
	b := RandUniform(140, 130, -1, 1, 1.0, 72)
	forceKernel(t, GEMMSimple)
	want, err := Multiply(a, b, 1)
	if err != nil {
		t.Fatal(err)
	}
	SetGEMMKernel(GEMMAuto)
	for _, threads := range []int{1, 4} {
		got, err := Multiply(a, b, threads)
		if err != nil {
			t.Fatal(err)
		}
		bitwiseEqual(t, want, got, "auto multiply")
	}
}

// TestTiledMultiplyAccBitwiseEqualsSimple accumulates onto a non-zero
// accumulator with both kernels across ragged shapes and thread counts.
func TestTiledMultiplyAccBitwiseEqualsSimple(t *testing.T) {
	for _, m := range tileDims {
		for _, k := range tileDims {
			for _, n := range tileDims {
				a := RandUniform(m, k, -1, 1, 1.0, int64(m*7+k+n))
				b := RandUniform(k, n, -1, 1, 1.0, int64(m+k*7+n))
				seed := RandUniform(m, n, -1, 1, 1.0, int64(m+k+n*7))
				for _, threads := range []int{1, 4} {
					accS := seed.Copy()
					accT := seed.Copy()
					SetGEMMKernel(GEMMSimple)
					err := MultiplyAcc(accS, a, b, threads)
					SetGEMMKernel(GEMMTiled)
					err2 := MultiplyAcc(accT, a, b, threads)
					SetGEMMKernel(GEMMAuto)
					if err != nil || err2 != nil {
						t.Fatalf("%dx%dx%d: %v %v", m, k, n, err, err2)
					}
					bitwiseEqual(t, accS, accT, "multiply-acc")
				}
			}
		}
	}
}

// TestTiledMultiplyAccStripesBitwise re-verifies the stripe-accumulation
// legality property of the blocked shuffle/broadcast-left executors with the
// tiled kernel underneath — including the mixed case where the one-shot
// product selects the tiled engine while the short k-stripes fall back to the
// simple loop.
func TestTiledMultiplyAccStripesBitwise(t *testing.T) {
	const m, k, n, stripe = 37, 200, 23, 48
	a := RandUniform(m, k, -1, 1, 1.0, 61)
	b := RandUniform(k, n, -1, 1, 1.0, 62)
	for _, mode := range []GEMMKernel{GEMMTiled, GEMMAuto} {
		forceKernel(t, mode)
		want, err := Multiply(a, b, 1)
		if err != nil {
			t.Fatal(err)
		}
		SetGEMMKernel(GEMMAuto)
		acc := NewDense(m, n)
		for k0 := 0; k0 < k; k0 += stripe {
			k1 := min(k0+stripe, k)
			as, err := Slice(a, 0, m, k0, k1)
			if err != nil {
				t.Fatal(err)
			}
			bs, err := Slice(b, k0, k1, 0, n)
			if err != nil {
				t.Fatal(err)
			}
			if err := MultiplyAcc(acc, as, bs, 2); err != nil {
				t.Fatal(err)
			}
		}
		bitwiseEqual(t, want, acc, "stripe accumulation")
	}
}

// TestTiledTSMMBitwiseEqualsSimple pins the tiled upper-triangle TSMM chunk
// kernel against the simple triangular loop across ragged shapes and thread
// counts, and re-checks symmetry of the mirrored output.
func TestTiledTSMMBitwiseEqualsSimple(t *testing.T) {
	for _, m := range []int{1, 3, 4, 5, 129, 300} {
		for _, n := range tileDims {
			x := RandUniform(m, n, -1, 1, 1.0, int64(m*31+n))
			for _, threads := range []int{1, 4} {
				SetGEMMKernel(GEMMSimple)
				want := TSMM(x, threads)
				SetGEMMKernel(GEMMTiled)
				got := TSMM(x, threads)
				SetGEMMKernel(GEMMAuto)
				bitwiseEqual(t, want, got, "tsmm")
				for i := 0; i < got.Rows(); i++ {
					for j := i + 1; j < got.Cols(); j++ {
						if got.Get(i, j) != got.Get(j, i) {
							t.Fatalf("tiled TSMM not symmetric at (%d,%d)", i, j)
						}
					}
				}
			}
		}
	}
}

// TestTiledScalarFallbackBitwise pins the portable scalar micro-kernel
// against the dispatcher's default path (the vector kernel where available):
// disabling the assembly kernel must not change a single bit, which is what
// makes results architecture-independent.
func TestTiledScalarFallbackBitwise(t *testing.T) {
	forceKernel(t, GEMMTiled)
	prev := gemmAsmAvailable
	t.Cleanup(func() { gemmAsmAvailable = prev })
	for _, dims := range [][3]int{{129, 67, 129}, {4, 256, 4}, {5, 300, 3}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := RandUniform(m, k, -1, 1, 1.0, int64(m+k+n))
		b := RandUniform(k, n, -1, 1, 1.0, int64(m*k+n))
		gemmAsmAvailable = prev
		want, err := Multiply(a, b, 2)
		gemmAsmAvailable = false
		got, err2 := Multiply(a, b, 2)
		gemmAsmAvailable = prev
		if err != nil || err2 != nil {
			t.Fatalf("%v %v", err, err2)
		}
		bitwiseEqual(t, want, got, "scalar-fallback multiply")
	}
}

// TestTiledMultiplyAccSparseDensify checks the direct sparse densification
// feeding the tiled kernel (zeros flow through the micro-kernel instead of
// being skipped) still matches the simple kernel bitwise.
func TestTiledMultiplyAccSparseDensify(t *testing.T) {
	a := RandUniform(70, 90, -1, 1, 0.1, 63).ToSparse()
	b := RandUniform(90, 40, -1, 1, 0.1, 64).ToSparse()
	accS, accT := NewDense(70, 40), NewDense(70, 40)
	forceKernel(t, GEMMSimple)
	if err := MultiplyAcc(accS, a, b, 2); err != nil {
		t.Fatal(err)
	}
	SetGEMMKernel(GEMMTiled)
	if err := MultiplyAcc(accT, a, b, 2); err != nil {
		t.Fatal(err)
	}
	bitwiseEqual(t, accS, accT, "sparse-densified multiply-acc")
}

// TestAsDenseDirect checks the direct densification helper against the
// copy-then-convert path it replaced.
func TestAsDenseDirect(t *testing.T) {
	s := RandUniform(40, 30, -1, 1, 0.15, 65)
	if !s.IsSparse() {
		t.Fatal("expected sparse generated input")
	}
	got := asDense(s)
	want := s.Copy().ToDense()
	bitwiseEqual(t, want, got, "asDense")
	if !s.IsSparse() {
		t.Error("asDense mutated its input representation")
	}
	d := NewDense(3, 3)
	if asDense(d) != d {
		t.Error("asDense copied an already-dense block")
	}
}

// TestParallelRowsEvenDistribution verifies the balanced partition: exactly
// min(threads, rows) contiguous chunks whose sizes differ by at most one.
func TestParallelRowsEvenDistribution(t *testing.T) {
	for _, tc := range []struct{ rows, threads, wantChunks int }{
		{100, 8, 8},  // 100 = 8*12+4: ceil-chunking used to give 13,13,...,9
		{7, 4, 4},    // small row counts used to launch fewer workers
		{16, 16, 16}, // one row each
		{5, 8, 5},    // more threads than rows
		{97, 3, 3},
	} {
		var mu sync.Mutex
		type span struct{ r0, r1 int }
		var spans []span
		parallelRows(tc.rows, tc.threads, func(r0, r1 int) {
			mu.Lock()
			spans = append(spans, span{r0, r1})
			mu.Unlock()
		})
		if len(spans) != tc.wantChunks {
			t.Errorf("rows=%d threads=%d: %d chunks, want %d", tc.rows, tc.threads, len(spans), tc.wantChunks)
			continue
		}
		sort.Slice(spans, func(i, j int) bool { return spans[i].r0 < spans[j].r0 })
		next, minSz, maxSz := 0, tc.rows, 0
		for _, s := range spans {
			if s.r0 != next {
				t.Errorf("rows=%d threads=%d: gap or overlap at %d", tc.rows, tc.threads, s.r0)
			}
			sz := s.r1 - s.r0
			minSz, maxSz = min(minSz, sz), max(maxSz, sz)
			next = s.r1
		}
		if next != tc.rows {
			t.Errorf("rows=%d threads=%d: chunks cover %d rows", tc.rows, tc.threads, next)
		}
		if maxSz-minSz > 1 {
			t.Errorf("rows=%d threads=%d: chunk sizes range %d..%d, want spread <= 1", tc.rows, tc.threads, minSz, maxSz)
		}
	}
}

// TestMMChainBlockedBitwise pins the register-blocked 4-row mmchain dense leg
// against a row-at-a-time reference built from the same chunk structure, and
// checks thread-count reproducibility over a row count that exercises the
// 4-row remainder.
func TestMMChainBlockedBitwise(t *testing.T) {
	x := RandUniform(519, 67, -1, 1, 1.0, 91) // 519 = 4*129+3: ragged everywhere
	v := RandUniform(67, 1, -1, 1, 1.0, 92)
	w := RandUniform(519, 1, -1, 1, 1.0, 93)
	for _, weights := range []*MatrixBlock{nil, w} {
		t1, err := MMChain(x, v, weights, 1)
		if err != nil {
			t.Fatal(err)
		}
		t4, err := MMChain(x, v, weights, 4)
		if err != nil {
			t.Fatal(err)
		}
		bitwiseEqual(t, t1, t4, "mmchain threads")
		// reference: explicit two-step chain, tolerance comparison
		xv, err := Multiply(x, v, 1)
		if err != nil {
			t.Fatal(err)
		}
		if weights != nil {
			xv, err = CellwiseOp(weights, xv, OpMul, 1)
			if err != nil {
				t.Fatal(err)
			}
		}
		want, err := Multiply(Transpose(x), xv, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !want.Equals(t1, 1e-9) {
			t.Error("blocked mmchain disagrees with the explicit chain")
		}
	}
}

// vecKs and vecLens are the common dimensions and the matrix-side lengths of
// the vector-kernel property tests: the 4-way unroll remainders 0..3, a
// single term, a k past one cache block, a 20000-term dot product, and a
// length that splits unevenly across workers.
var (
	vecKs   = []int{1, 3, 4, 5, 257, 20000}
	vecLens = []int{1, 3, 4, 5, 4099}
)

// vecOperand returns a rows x cols operand in the requested representation.
// Both carry zeros among values of both signs, so the dense vector kernels,
// which have no zero skip, see 0*x = -0 terms the simple loop and the CSR
// kernels skip.
func vecOperand(rows, cols int, sparse bool, seed int64) *MatrixBlock {
	if sparse {
		return RandUniform(rows, cols, -1, 1, 0.2, seed).ToSparse()
	}
	return RandUniform(rows, cols, -1, 1, 0.8, seed).ToDense()
}

// TestVectorKernelsBitwiseEqualsSimple pins the matrix-vector (n == 1) and
// vector-matrix (m == 1) shapes of Multiply against the forced simple kernel,
// bit for bit, at every thread count: dense operands run the vector kernels,
// and a sparse operand keeps its CSR kernel, which must stay independent of
// the thread count. The 4099 x 20000 shape is left out: its operand alone
// would take 650 MB.
func TestVectorKernelsBitwiseEqualsSimple(t *testing.T) {
	for _, k := range vecKs {
		for _, l := range vecLens {
			if l*k > 1<<21 {
				continue
			}
			for _, sparseMat := range []bool{false, true} {
				for _, sparseVec := range []bool{false, true} {
					seed := int64(k*10007 + l)
					x := vecOperand(l, k, sparseMat, seed)
					v := vecOperand(k, 1, sparseVec, seed+1)
					u := vecOperand(1, k, sparseVec, seed+2)
					b := vecOperand(k, l, sparseMat, seed+3)
					what := fmt.Sprintf("k=%d len=%d sparseMat=%v sparseVec=%v", k, l, sparseMat, sparseVec)
					checkVectorKernel(t, x, v, "mv "+what)
					checkVectorKernel(t, u, b, "vm "+what)
				}
			}
		}
	}
}

// checkVectorKernel asserts the dense dispatch picks a vector kernel for the
// shape of a %*% b and that the product equals the simple kernel's bitwise at
// threads 1, 2, 3 and 8.
func checkVectorKernel(t *testing.T, a, b *MatrixBlock, what string) {
	t.Helper()
	class := kernelVM
	if b.Cols() == 1 {
		class = kernelMV
	}
	if got := MatMultKernel(a.Rows(), a.Cols(), b.Cols()); got != class {
		t.Fatalf("%s: kernel class %q, want %q", what, got, class)
	}
	forceKernel(t, GEMMSimple)
	want, err := Multiply(a, b, 1)
	if err != nil {
		t.Fatal(err)
	}
	SetGEMMKernel(GEMMAuto)
	for _, threads := range []int{1, 2, 3, 8} {
		got, err := Multiply(a, b, threads)
		if err != nil {
			t.Fatal(err)
		}
		bitwiseEqual(t, want, got, fmt.Sprintf("%s threads=%d", what, threads))
	}
}

// TestVectorKernelsStripeAccumulation checks the MultiplyAcc contract on the
// vector kernels (MultiplyAcc densifies sparse operands, so both
// representations reach them): accumulating ascending k-stripes (of a width
// that leaves ragged unroll remainders) equals the one-shot Multiply product
// bitwise, and an accumulation onto a non-zero accumulator equals the simple
// kernel's.
func TestVectorKernelsStripeAccumulation(t *testing.T) {
	const stripe = 61
	for _, k := range []int{257, 20000} {
		for _, sparse := range []bool{false, true} {
			l := 4099
			if k == 20000 {
				l = 5
			}
			x := vecOperand(l, k, sparse, int64(k+1))
			v := vecOperand(k, 1, sparse, int64(k+2))
			u := vecOperand(1, k, sparse, int64(k+3))
			b := vecOperand(k, l, sparse, int64(k+4))
			for _, pair := range [][2]*MatrixBlock{{x, v}, {u, b}} {
				a, b := pair[0], pair[1]
				m, n := a.Rows(), b.Cols()
				what := fmt.Sprintf("%dx%d %%*%% %dx%d sparse=%v", m, k, k, n, sparse)
				want, err := Multiply(a, b, 1)
				if err != nil {
					t.Fatal(err)
				}
				for _, threads := range []int{1, 3} {
					acc := NewDense(m, n)
					for k0 := 0; k0 < k; k0 += stripe {
						k1 := min(k0+stripe, k)
						as, err := Slice(a, 0, m, k0, k1)
						if err != nil {
							t.Fatal(err)
						}
						bs, err := Slice(b, k0, k1, 0, n)
						if err != nil {
							t.Fatal(err)
						}
						if err := MultiplyAcc(acc, as, bs, threads); err != nil {
							t.Fatal(err)
						}
					}
					bitwiseEqual(t, want, acc, fmt.Sprintf("stripes %s threads=%d", what, threads))

					seed := RandUniform(m, n, -1, 1, 1.0, int64(m+n))
					accS, accA := seed.Copy(), seed.Copy()
					SetGEMMKernel(GEMMSimple)
					err := MultiplyAcc(accS, a, b, threads)
					SetGEMMKernel(GEMMAuto)
					if err != nil {
						t.Fatal(err)
					}
					if err := MultiplyAcc(accA, a, b, threads); err != nil {
						t.Fatal(err)
					}
					bitwiseEqual(t, accS, accA, fmt.Sprintf("acc %s threads=%d", what, threads))
				}
			}
		}
	}
}
