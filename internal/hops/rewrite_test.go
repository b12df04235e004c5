package hops

import (
	"testing"

	"github.com/systemds/systemds-go/internal/types"
)

// leftTransposeDAG builds g = t(X) %*% B over reads of the given sizes (-1 =
// unknown) and returns the matmult, X, B and the size-annotated DAG.
func leftTransposeDAG(xRows, xCols, bRows, bCols int64) (mm, x, b *Hop, d *DAG) {
	x = matRead("X", xRows, xCols)
	b = matRead("B", bRows, bCols)
	tx := NewHop(KindReorg, "t", x)
	tx.DataType = types.Matrix
	mm = NewHop(KindMatMult, "ba+*", tx, b)
	mm.DataType = types.Matrix
	d = &DAG{Roots: []*Hop{NewWrite("g", mm)}}
	PropagateSizes(d, nil)
	return mm, x, b, d
}

// transposesOf counts the transpose hops of the DAG reading h.
func transposesOf(d *DAG, h *Hop) int {
	n := 0
	for _, o := range d.Nodes() {
		if o.Kind == KindReorg && o.Op == "t" && o.Inputs[0] == h {
			n++
		}
	}
	return n
}

func TestRewriteLeftTransposeFires(t *testing.T) {
	for _, tc := range []struct {
		name  string
		bCols int64
	}{
		{"column vector", 1},
		{"narrow matrix", 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mm, x, b, d := leftTransposeDAG(1000, 50, 1000, tc.bCols)
			RewriteLeftTranspose(d)
			PropagateSizes(d, nil)
			// the matmult hop itself became the outer transpose of t(B) %*% X
			if mm.Kind != KindReorg || mm.Op != "t" || len(mm.Inputs) != 1 {
				t.Fatalf("rewritten root = %s %s, want Reorg t", mm.Kind, mm.Op)
			}
			inner := mm.Inputs[0]
			if inner.Kind != KindMatMult || inner.Inputs[1] != x {
				t.Fatalf("inner = %s with right input %v, want MatMult over X", inner.Kind, inner.Inputs[1])
			}
			if tb := inner.Inputs[0]; tb.Kind != KindReorg || tb.Op != "t" || tb.Inputs[0] != b {
				t.Fatalf("inner left operand is not t(B)")
			}
			if mm.DC.Rows != 50 || mm.DC.Cols != tc.bCols {
				t.Errorf("result characteristics = %v, want 50x%d", mm.DC, tc.bCols)
			}
			if n := transposesOf(d, x); n != 0 {
				t.Errorf("%d transposes of X remain", n)
			}
		})
	}
}

// TestRewriteLeftTransposeFoldsTransposedRHS: t(X) %*% t(Z) becomes
// t(Z %*% X) without a double transpose of Z.
func TestRewriteLeftTransposeFoldsTransposedRHS(t *testing.T) {
	x := matRead("X", 1000, 50)
	z := matRead("Z", 2, 1000)
	tx := NewHop(KindReorg, "t", x)
	tx.DataType = types.Matrix
	tz := NewHop(KindReorg, "t", z)
	tz.DataType = types.Matrix
	mm := NewHop(KindMatMult, "ba+*", tx, tz)
	mm.DataType = types.Matrix
	d := &DAG{Roots: []*Hop{NewWrite("g", mm)}}
	PropagateSizes(d, nil)
	RewriteLeftTranspose(d)
	if mm.Kind != KindReorg || mm.Inputs[0].Kind != KindMatMult || mm.Inputs[0].Inputs[0] != z {
		t.Fatalf("expected t(Z %%*%% X), got %s", d.Explain())
	}
}

func TestRewriteLeftTransposeDoesNotFire(t *testing.T) {
	for _, tc := range []struct {
		name                       string
		xRows, xCols, bRows, bCols int64
	}{
		// m*cd = 50*1000 < cd*n + m*n = 1000*200 + 50*200
		{"wide B", 1000, 50, 1000, 200},
		{"unknown X rows", -1, 50, 1000, 1},
		{"unknown B cols", 1000, 50, 1000, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mm, x, _, d := leftTransposeDAG(tc.xRows, tc.xCols, tc.bRows, tc.bCols)
			RewriteLeftTranspose(d)
			if mm.Kind != KindMatMult || transposesOf(d, x) != 1 {
				t.Errorf("rewrite fired:\n%s", d.Explain())
			}
		})
	}
}

// TestRewriteLeftTransposeKeepsMMChain: the fused t(X) %*% (X %*% v) reads X
// directly and must survive the rewrite, which runs after fusion.
func TestRewriteLeftTransposeKeepsMMChain(t *testing.T) {
	x := matRead("X", 1000, 50)
	v := matRead("v", 50, 1)
	tx := NewHop(KindReorg, "t", x)
	tx.DataType = types.Matrix
	xv := NewHop(KindMatMult, "ba+*", x, v)
	xv.DataType = types.Matrix
	root := NewHop(KindMatMult, "ba+*", tx, xv)
	root.DataType = types.Matrix
	d := &DAG{Roots: []*Hop{NewWrite("g", root)}}
	prepare(d)
	RewriteLeftTranspose(d)
	if root.Kind != KindMMChain {
		t.Fatalf("root = %s, want MMChain", root.Kind)
	}
	if d.CountKind(KindReorg) != 0 {
		t.Errorf("rewrite introduced transposes:\n%s", d.Explain())
	}
}
