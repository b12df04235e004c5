package compress

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"github.com/systemds/systemds-go/internal/matrix"
)

// allGroupsMatrix is a 4x6 compressed matrix with one group of every
// encoding, the smallest input that reaches every branch of Read.
func allGroupsMatrix() *CompressedMatrix {
	return &CompressedMatrix{NumRows: 4, NumCols: 6, Groups: []ColGroup{
		&DDCGroup{Col: 0, Dict: []float64{1, 2}, Counts: []int32{2, 2}, Codes8: []uint8{0, 1, 0, 1}},
		&RLEGroup{Col: 1, Values: []float64{3, -1}, Starts: []int32{0, 2}, Lens: []int32{2, 2}},
		&CoCodedGroup{Cols: []int{2, 3}, Dict: []float64{1, 5, 2, 6}, Counts: []int32{3, 1}, Codes16: []uint16{0, 0, 1, 0}},
		&SDCGroup{Col: 4, N: 4, Dict: []float64{7}, Counts: []int32{1}, Pos: []int32{2}, Codes: []uint16{0}},
		&UncompressedGroup{ColIdx: []int{5}, Data: matrix.NewDenseFromSlice(4, 1, []float64{1, 2, 3, 4})},
	}}
}

func serialize(t testing.TB, cm *CompressedMatrix) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := cm.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// corruptHeader is a serialized header for a rows x cols matrix with one
// group, followed by the group fields in order.
func corruptHeader(rows, cols int64, fields ...any) []byte {
	var buf bytes.Buffer
	for _, v := range append([]any{serializeMagic, rows, cols, int32(1)}, fields...) {
		_ = binary.Write(&buf, binary.LittleEndian, v)
	}
	return buf.Bytes()
}

// TestReadRejectsCorruptLengths asserts every length and index Read takes
// from the input is checked before use: each case once panicked or
// allocated from an unchecked field.
func TestReadRejectsCorruptLengths(t *testing.T) {
	ddc := uint8(EncDDC)
	cases := map[string][]byte{
		"negative dictionary": corruptHeader(4, 1, ddc, int32(0), int32(-5)),
		"column past width":   corruptHeader(4, 1, ddc, int32(3), int32(1)),
		"code past dictionary": corruptHeader(2, 1, ddc, int32(0), int32(1), 1.0, int32(2),
			uint8(1), int64(2), []uint8{0, 1}),
		"code count not rows": corruptHeader(2, 1, ddc, int32(0), int32(1), 1.0, int32(2),
			uint8(1), int64(1<<40)),
		"run past rows": corruptHeader(4, 1, uint8(EncRLE), int32(0), int32(1), 1.0, int32(3), int32(2)),
		"negative rows": corruptHeader(-1, 1),
		"more groups than columns": func() []byte {
			b := corruptHeader(4, 1)
			binary.LittleEndian.PutUint32(b[20:], 2)
			return b
		}(),
		"unbacked length": corruptHeader(math.MaxInt32, 1, uint8(EncUncompressed), int32(1), int32(0),
			int64(math.MaxInt32), int64(1)),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Read(bytes.NewReader(data)); err == nil {
				t.Fatal("corrupt input read without error")
			}
		})
	}
	// truncation anywhere in a valid file is an error too
	full := serialize(t, allGroupsMatrix())
	for n := 0; n < len(full); n++ {
		if _, err := Read(bytes.NewReader(full[:n])); err == nil {
			t.Fatalf("truncated to %d of %d bytes read without error", n, len(full))
		}
	}
}

// FuzzCompressRead feeds arbitrary bytes to Read: it must return an error or
// a matrix every kernel can run on, and a matrix it accepts must survive a
// write/read round trip cell for cell.
func FuzzCompressRead(f *testing.F) {
	f.Add(serialize(f, allGroupsMatrix()))
	f.Fuzz(func(t *testing.T, data []byte) {
		cm, err := Read(bytes.NewReader(data))
		if err != nil {
			if !strings.HasPrefix(err.Error(), "compress: ") && !strings.Contains(err.Error(), "EOF") {
				t.Fatalf("unexpected error shape: %v", err)
			}
			return
		}
		rows, cols := cm.Rows(), cm.Cols()
		if rows > 64 || cols > 64 {
			return // kernels allocate rows x cols and cols x cols; Read ran in full
		}
		m := cm.Decompress()
		back, err := Read(bytes.NewReader(serialize(t, cm)))
		if err != nil {
			t.Fatalf("re-reading a written matrix: %v", err)
		}
		if got := back.Decompress(); !sameCells(got, m) {
			t.Fatal("write/read round trip changed cells")
		}
		ones := func(r, c int) *matrix.MatrixBlock { return matrix.NewDenseFromSlice(r, c, filled(r*c)) }
		if _, err := cm.MatVec(ones(cols, 1), 1); err != nil {
			t.Fatal(err)
		}
		if _, err := cm.VecMat(ones(1, rows), 1); err != nil {
			t.Fatal(err)
		}
		if _, err := cm.MatMultDense(ones(cols, 2), 1); err != nil {
			t.Fatal(err)
		}
		if _, err := cm.TransMatMultDense(ones(rows, 2), 1); err != nil {
			t.Fatal(err)
		}
		cm.TSMM(1)
		cm.ColSums()
		cm.RowSums(1)
		_, _, _ = cm.Sum(), cm.Min(), cm.Max()
		cm.SliceRows(0, rows/2)
	})
}

func filled(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

// sameCells compares two blocks bit for bit, so NaN cells compare equal.
func sameCells(a, b *matrix.MatrixBlock) bool {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	for r := 0; r < a.Rows(); r++ {
		for c := 0; c < a.Cols(); c++ {
			if math.Float64bits(a.Get(r, c)) != math.Float64bits(b.Get(r, c)) {
				return false
			}
		}
	}
	return true
}
