package types

import (
	"testing"
	"testing/quick"
)

func TestValueTypeStringAndParse(t *testing.T) {
	cases := map[string]ValueType{
		"double": FP64, "FP64": FP64, "float64": FP64,
		"fp32": FP32, "integer": INT64, "int32": INT32,
		"boolean": Boolean, "string": String,
	}
	for in, want := range cases {
		got, err := ParseValueType(in)
		if err != nil {
			t.Fatalf("ParseValueType(%q): %v", in, err)
		}
		if got != want {
			t.Errorf("ParseValueType(%q) = %v, want %v", in, got, want)
		}
	}
	if _, err := ParseValueType("complex"); err == nil {
		t.Error("expected error for unknown type")
	}
	if FP64.String() != "FP64" || Boolean.String() != "BOOLEAN" {
		t.Error("unexpected String() output")
	}
}

func TestValueTypeNumericAndSize(t *testing.T) {
	if !FP64.IsNumeric() || !Boolean.IsNumeric() || String.IsNumeric() {
		t.Error("IsNumeric classification wrong")
	}
	if FP64.Size() != 8 || FP32.Size() != 4 || Boolean.Size() != 1 {
		t.Error("Size() wrong")
	}
}

func TestDataTypeParse(t *testing.T) {
	for in, want := range map[string]DataType{
		"matrix": Matrix, "frame": Frame, "scalar": Scalar, "list": List,
	} {
		got, err := ParseDataType(in)
		if err != nil || got != want {
			t.Errorf("ParseDataType(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseDataType("graph"); err == nil {
		t.Error("expected error")
	}
}

func TestSchema(t *testing.T) {
	s := UniformSchema(FP64, 3)
	if len(s) != 3 || s[2] != FP64 {
		t.Error("UniformSchema wrong")
	}
	o := Schema{FP64, FP64, FP64}
	if !s.Equal(o) {
		t.Error("schemas should be equal")
	}
	if s.Equal(Schema{FP64}) || s.Equal(Schema{FP64, FP64, String}) {
		t.Error("schemas should differ")
	}
	if s.String() != "FP64,FP64,FP64" {
		t.Errorf("schema string = %q", s.String())
	}
}

func TestDataCharacteristics(t *testing.T) {
	dc := NewDataCharacteristics(100, 50, 1024, 500)
	if !dc.DimsKnown() || !dc.NNZKnown() {
		t.Error("expected known dims and nnz")
	}
	if dc.Cells() != 5000 {
		t.Errorf("Cells = %d", dc.Cells())
	}
	if dc.Sparsity() != 0.1 {
		t.Errorf("Sparsity = %v", dc.Sparsity())
	}
	u := UnknownCharacteristics()
	if u.DimsKnown() || u.Cells() != -1 || u.Sparsity() != 1.0 {
		t.Error("unknown characteristics misreported")
	}
}

func TestSizeEstimates(t *testing.T) {
	if EstimateSizeDense(1000, 1000) < 8_000_000 {
		t.Error("dense estimate too small")
	}
	sp := EstimateSizeSparse(1000, 1000, 0.01)
	if sp >= EstimateSizeDense(1000, 1000) {
		t.Error("sparse estimate should be below dense for 1% sparsity")
	}
	dc := NewDataCharacteristics(1000, 1000, 1024, 10_000)
	if EstimateSize(dc) != EstimateSizeSparse(1000, 1000, 0.01) {
		t.Error("EstimateSize should pick sparse path")
	}
	dcDense := NewDataCharacteristics(1000, 1000, 1024, 900_000)
	if EstimateSize(dcDense) != EstimateSizeDense(1000, 1000) {
		t.Error("EstimateSize should pick dense path")
	}
	if EstimateSize(UnknownCharacteristics()) != -1 {
		t.Error("unknown size should be -1")
	}
}

func TestExecTypeString(t *testing.T) {
	if ExecCP.String() != "CP" || ExecDist.String() != "DIST" || ExecFed.String() != "FED" {
		t.Error("ExecType strings wrong")
	}
}

func TestPropertySparsityBounds(t *testing.T) {
	f := func(rows, cols uint16, nnzRaw uint32) bool {
		r, c := int64(rows%1000)+1, int64(cols%1000)+1
		nnz := int64(nnzRaw) % (r * c)
		dc := NewDataCharacteristics(r, c, 1024, nnz)
		sp := dc.Sparsity()
		return sp >= 0 && sp <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPropertyEstimateMonotonicInRows(t *testing.T) {
	f := func(rows uint16, cols uint16) bool {
		r, c := int64(rows%500)+1, int64(cols%500)+1
		return EstimateSizeDense(r, c) <= EstimateSizeDense(r+1, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
