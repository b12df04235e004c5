package matrix

import "testing"

func TestTransposeDense(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	got := Transpose(m)
	want := FromRows([][]float64{{1, 4}, {2, 5}, {3, 6}})
	if !got.Equals(want, 0) {
		t.Errorf("transpose = %v, want %v", got, want)
	}
}

func TestTransposeSparse(t *testing.T) {
	m := RandUniform(40, 25, 0, 1, 0.15, 21)
	if !m.IsSparse() {
		t.Fatal("expected sparse input")
	}
	got := Transpose(m)
	want := Transpose(m.Copy().ToDense())
	if !got.Equals(want, 0) {
		t.Error("sparse transpose disagrees with dense transpose")
	}
}

// TestTransposeVector: a dense row or column vector transposes to a copy of
// its values (the row-major layouts coincide) that does not alias the input.
func TestTransposeVector(t *testing.T) {
	for _, m := range []*MatrixBlock{RandUniform(37, 1, -1, 1, 0.7, 23).ToDense(), RandUniform(1, 37, -1, 1, 0.7, 24).ToDense()} {
		got := Transpose(m)
		if got.Rows() != m.Cols() || got.Cols() != m.Rows() || got.IsSparse() {
			t.Fatalf("t(%dx%d) is %dx%d sparse=%v", m.Rows(), m.Cols(), got.Rows(), got.Cols(), got.IsSparse())
		}
		for i, v := range m.DenseValues() {
			if got.DenseValues()[i] != v {
				t.Fatalf("t(%dx%d)[%d] = %v, want %v", m.Rows(), m.Cols(), i, got.DenseValues()[i], v)
			}
		}
		if got.NNZ() != m.NNZ() {
			t.Errorf("nnz = %d, want %d", got.NNZ(), m.NNZ())
		}
		got.DenseValues()[0] = 42
		if m.DenseValues()[0] == 42 {
			t.Error("vector transpose aliases its input")
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	m := RandUniform(17, 29, -5, 5, 1.0, 22)
	if !Transpose(Transpose(m)).Equals(m, 0) {
		t.Error("t(t(X)) != X")
	}
}

func TestDiag(t *testing.T) {
	v := FromRows([][]float64{{1}, {2}, {3}})
	d, err := Diag(v)
	if err != nil {
		t.Fatal(err)
	}
	if d.Rows() != 3 || d.Cols() != 3 || d.Get(1, 1) != 2 || d.Get(0, 1) != 0 {
		t.Errorf("diag(v) = %v", d)
	}
	back, err := Diag(d.Copy().ToDense())
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equals(v, 0) {
		t.Errorf("diag(diag(v)) = %v, want %v", back, v)
	}
	if _, err := Diag(NewDense(2, 3)); err == nil {
		t.Error("expected error for non-square non-vector input")
	}
}

func TestReverse(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	got := Reverse(m)
	want := FromRows([][]float64{{5, 6}, {3, 4}, {1, 2}})
	if !got.Equals(want, 0) {
		t.Errorf("reverse = %v", got)
	}
}

func TestCBindRBind(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5}, {6}})
	cb, err := CBind(a, b)
	if err != nil {
		t.Fatal(err)
	}
	wantCB := FromRows([][]float64{{1, 2, 5}, {3, 4, 6}})
	if !cb.Equals(wantCB, 0) {
		t.Errorf("cbind = %v", cb)
	}
	c := FromRows([][]float64{{7, 8}})
	rb, err := RBind(a, c)
	if err != nil {
		t.Fatal(err)
	}
	wantRB := FromRows([][]float64{{1, 2}, {3, 4}, {7, 8}})
	if !rb.Equals(wantRB, 0) {
		t.Errorf("rbind = %v", rb)
	}
	if _, err := CBind(a, FromRows([][]float64{{1}})); err == nil {
		t.Error("expected cbind row mismatch error")
	}
	if _, err := RBind(a, FromRows([][]float64{{1}})); err == nil {
		t.Error("expected rbind column mismatch error")
	}
}

func TestSlice(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	s, err := Slice(m, 1, 3, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := FromRows([][]float64{{4, 5}, {7, 8}})
	if !s.Equals(want, 0) {
		t.Errorf("slice = %v", s)
	}
	if _, err := Slice(m, 0, 4, 0, 1); err == nil {
		t.Error("expected out of bounds error")
	}
	// sparse path
	sp := m.Copy().ToSparse()
	s2, err := Slice(sp, 1, 3, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Equals(want, 0) {
		t.Errorf("sparse slice = %v", s2)
	}
}

func TestLeftIndex(t *testing.T) {
	m := NewDense(3, 3)
	src := FromRows([][]float64{{1, 2}, {3, 4}})
	got, err := LeftIndex(m, src, 1, 3, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got.Get(1, 1) != 1 || got.Get(2, 2) != 4 || got.Get(0, 0) != 0 {
		t.Errorf("left index result = %v", got)
	}
	// original unchanged
	if m.Get(1, 1) != 0 {
		t.Error("LeftIndex mutated its target")
	}
	if _, err := LeftIndex(m, src, 2, 4, 0, 2); err == nil {
		t.Error("expected out of bounds error")
	}
	if _, err := LeftIndex(m, src, 0, 1, 0, 1); err == nil {
		t.Error("expected shape mismatch error")
	}
}

func TestRemoveEmpty(t *testing.T) {
	m := FromRows([][]float64{{1, 0, 2}, {0, 0, 0}, {3, 0, 4}})
	rows, err := RemoveEmpty(m, "rows")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Rows() != 2 || rows.Get(1, 2) != 4 {
		t.Errorf("removeEmpty rows = %v", rows)
	}
	cols, err := RemoveEmpty(m, "cols")
	if err != nil {
		t.Fatal(err)
	}
	if cols.Cols() != 2 || cols.Get(2, 1) != 4 {
		t.Errorf("removeEmpty cols = %v", cols)
	}
	if _, err := RemoveEmpty(m, "diag"); err == nil {
		t.Error("expected error for invalid margin")
	}
}

func TestOrder(t *testing.T) {
	m := FromRows([][]float64{{3, 30}, {1, 10}, {2, 20}})
	sorted, err := Order(m, 0, false, false)
	if err != nil {
		t.Fatal(err)
	}
	want := FromRows([][]float64{{1, 10}, {2, 20}, {3, 30}})
	if !sorted.Equals(want, 0) {
		t.Errorf("order = %v", sorted)
	}
	idx, err := Order(m, 0, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Get(0, 0) != 1 || idx.Get(1, 0) != 3 || idx.Get(2, 0) != 2 {
		t.Errorf("order index = %v", idx)
	}
	if _, err := Order(m, 5, false, false); err == nil {
		t.Error("expected error for out of range column")
	}
}

func TestSelectRows(t *testing.T) {
	m := FromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	idx := FromRows([][]float64{{3}, {1}})
	got, err := SelectRows(m, idx)
	if err != nil {
		t.Fatal(err)
	}
	want := FromRows([][]float64{{3, 3}, {1, 1}})
	if !got.Equals(want, 0) {
		t.Errorf("SelectRows = %v", got)
	}
	if _, err := SelectRows(m, FromRows([][]float64{{9}})); err == nil {
		t.Error("expected out of bounds error")
	}
}
