package runtime

import (
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/systemds/systemds-go/internal/bufferpool"
	"github.com/systemds/systemds-go/internal/compress"
	"github.com/systemds/systemds-go/internal/matrix"
)

// compressedFixture builds a compressed 1024 x 32 low-cardinality matrix.
func compressedFixture(t *testing.T) (*matrix.MatrixBlock, *compress.CompressedMatrix) {
	t.Helper()
	noise := matrix.RandUniform(1024, 32, 0, 1, 1.0, 9)
	m := matrix.NewDense(1024, 32)
	for r := 0; r < 1024; r++ {
		for c := 0; c < 32; c++ {
			m.Set(r, c, math.Floor(noise.Get(r, c)*4))
		}
	}
	m.RecomputeNNZ()
	cm, plan, ok := compress.Compress(m, compress.PlannerConfig{}, 1)
	if !ok {
		t.Fatalf("fixture did not compress: %v", plan)
	}
	return m, cm
}

// TestCompressedObjectSpillsCompressedBytes asserts the buffer-pool contract
// of the compressed object: eviction writes the compressed serialization
// (file smaller than the dense image), restore reproduces the data, and the
// decompression memo is dropped across the spill.
func TestCompressedObjectSpillsCompressedBytes(t *testing.T) {
	dir := t.TempDir()
	pool := bufferpool.New(0, dir) // no auto-eviction; we drive Evict directly
	m, cm := compressedFixture(t)
	co := NewCompressedMatrixObject(cm, pool, &Counters{})

	path := filepath.Join(dir, "spill.sdsc")
	if err := co.Evict(path); err != nil {
		t.Fatalf("evict failed: %v", err)
	}
	if co.IsInMemory() {
		t.Fatalf("object still in memory after eviction")
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatalf("spill file missing: %v", err)
	}
	if dense := m.InMemorySize(); info.Size() >= dense {
		t.Errorf("spill file is %d bytes, want < dense image %d (compressed bytes must hit disk)", info.Size(), dense)
	}

	restored, err := co.Compressed()
	if err != nil {
		t.Fatalf("restore failed: %v", err)
	}
	back := restored.Decompress()
	if !back.Equals(m, 0) {
		t.Errorf("restored compressed matrix differs from the original")
	}
	dc := co.DataCharacteristics()
	if dc.Rows != 1024 || dc.Cols != 32 || dc.NNZ != m.NNZ() {
		t.Errorf("characteristics after restore = %s", dc)
	}
}

// TestCompressedObjectDecompressMemoizedAndCounted asserts the transparent
// fallback counts exactly one decompression per materialization, not one per
// consumer.
func TestCompressedObjectDecompressMemoizedAndCounted(t *testing.T) {
	_, cm := compressedFixture(t)
	ctr := &Counters{}
	co := NewCompressedMatrixObject(cm, nil, ctr)
	b1, err := co.LocalBlock("first")
	if err != nil {
		t.Fatal(err)
	}
	b2, err := co.LocalBlock("second")
	if err != nil {
		t.Fatal(err)
	}
	if b1 != b2 {
		t.Errorf("repeated decompression did not reuse the memo")
	}
	if got := ctr.CompressStats(); got.Decompressions != 1 || got.DecompressionsByOp["first"] != 1 {
		t.Errorf("decompressions = %d by op %v, want 1 charged to the first reader", got.Decompressions, got.DecompressionsByOp)
	}

	// concurrent first readers share one memoized block and count once
	ctr = &Counters{}
	co = NewCompressedMatrixObject(cm, nil, ctr)
	blocks := make([]*matrix.MatrixBlock, 8)
	var wg sync.WaitGroup
	for i := range blocks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			blk, err := co.LocalBlock("concurrent")
			if err != nil {
				t.Error(err)
			}
			blocks[i] = blk
		}()
	}
	wg.Wait()
	for _, blk := range blocks[1:] {
		if blk != blocks[0] {
			t.Fatal("concurrent readers got different blocks")
		}
	}
	if got := ctr.CompressStats().Decompressions; got != 1 {
		t.Errorf("concurrent decompressions = %d, want 1", got)
	}
}

// TestCorruptCompressedSpillIsAnError asserts a damaged compressed spill
// file surfaces as an error on restore instead of crashing the process: a
// group header with a negative dictionary length, and a well-formed file of
// the wrong shape.
func TestCorruptCompressedSpillIsAnError(t *testing.T) {
	dir := t.TempDir()
	_, cm := compressedFixture(t)
	negativeDict := []byte{
		0x43, 0x53, 0x44, 0x53, // magic
		4, 0, 0, 0, 0, 0, 0, 0, // rows
		1, 0, 0, 0, 0, 0, 0, 0, // cols
		1, 0, 0, 0, // groups
		0,          // DDC
		0, 0, 0, 0, // column
		0xfb, 0xff, 0xff, 0xff, // dictionary length -5
	}
	for name, corrupt := range map[string]func(path string) error{
		"negative dictionary length": func(path string) error { return os.WriteFile(path, negativeDict, 0o644) },
		"wrong shape":                func(path string) error { return cm.SliceRows(0, 10).WriteFile(path) },
	} {
		t.Run(name, func(t *testing.T) {
			co := NewCompressedMatrixObject(cm, bufferpool.New(0, dir), &Counters{})
			path := filepath.Join(dir, "spill.sdsc")
			if err := co.Evict(path); err != nil {
				t.Fatal(err)
			}
			if err := corrupt(path); err != nil {
				t.Fatal(err)
			}
			if _, err := co.LocalBlock("test"); err == nil {
				t.Fatal("restore from a corrupt spill returned no error")
			}
		})
	}
}
