package runtime

import (
	"fmt"
	"sync"

	"github.com/systemds/systemds-go/internal/bufferpool"
	"github.com/systemds/systemds-go/internal/compress"
	"github.com/systemds/systemds-go/internal/dist"
	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/obs"
	"github.com/systemds/systemds-go/internal/types"
)

// CompressedMatrixObject is the first-class runtime handle of a column-group
// compressed matrix: it flows through the symbol table like any other matrix
// value, supported operators execute directly on the compressed groups, and
// unsupported consumers decompress transparently (counted, memoized). The
// object participates in the buffer pool; eviction spills the *compressed*
// bytes, never a decompressed cell image.
type CompressedMatrixObject struct {
	id        int64
	mu        sync.Mutex
	dc        types.DataCharacteristics
	cm        *compress.CompressedMatrix // nil when spilled
	spillPath string
	// local memoizes the decompressed form so repeated fallback consumers of
	// the same compressed variable pay (and count) the decompression once. It
	// is a reader-held view like BlockedMatrixObject's collect memo: not part
	// of MemorySize, dropped on eviction.
	local *matrix.MatrixBlock
	// part memoizes the row-range compressed partitioning used by the dist
	// executors (dictionaries shared with cm), keyed by partition size;
	// dropped on eviction together with cm.
	part     *dist.CompressedBlocked
	partSize int
	pool     *bufferpool.Pool
	ctr      *Counters
}

// NewCompressedMatrixObject wraps a compressed matrix into a managed object,
// counted in ctr, and registers it with the buffer pool.
func NewCompressedMatrixObject(cm *compress.CompressedMatrix, pool *bufferpool.Pool, ctr *Counters) *CompressedMatrixObject {
	co := &CompressedMatrixObject{
		dc: types.DataCharacteristics{
			Rows: int64(cm.Rows()), Cols: int64(cm.Cols()),
			Blocksize: types.DefaultBlocksize, NNZ: cm.NNZ(),
		},
		cm:   cm,
		pool: pool,
		ctr:  ctr,
	}
	if pool != nil {
		co.id = pool.NextID()
		pool.Register(co)
	}
	return co
}

// DataType returns types.Matrix: a compressed matrix is a matrix to the
// compiler; only the runtime representation differs.
func (c *CompressedMatrixObject) DataType() types.DataType { return types.Matrix }

// DataCharacteristics returns the matrix metadata without touching the data.
func (c *CompressedMatrixObject) DataCharacteristics() types.DataCharacteristics {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dc
}

// String implements Data.
func (c *CompressedMatrixObject) String() string {
	dc := c.DataCharacteristics()
	return fmt.Sprintf("CompressedMatrix[%dx%d]", dc.Rows, dc.Cols)
}

// Compressed returns the in-memory compressed matrix, restoring it from the
// spill file if the object was evicted.
func (c *CompressedMatrixObject) Compressed() (*compress.CompressedMatrix, error) {
	c.mu.Lock()
	restored := false
	if c.cm == nil {
		if c.spillPath == "" {
			c.mu.Unlock()
			return nil, fmt.Errorf("runtime: compressed matrix object %d has neither data nor spill file", c.id)
		}
		cm, err := compress.ReadFile(c.spillPath)
		if err == nil && (int64(cm.Rows()) != c.dc.Rows || int64(cm.Cols()) != c.dc.Cols) {
			err = fmt.Errorf("spill holds a %dx%d matrix, want %dx%d", cm.Rows(), cm.Cols(), c.dc.Rows, c.dc.Cols)
		}
		if err != nil {
			c.mu.Unlock()
			return nil, fmt.Errorf("runtime: restore evicted compressed matrix: %w", err)
		}
		c.cm = cm
		restored = true
	}
	cm := c.cm
	c.mu.Unlock()
	if c.pool != nil {
		c.pool.NotifyAccess(c, restored)
	}
	return cm, nil
}

// LocalBlock implements LocalMatrix: the transparent decompression fallback
// for consumers without a compressed kernel. The block is memoized, and only
// the consumer that wins the memoization race is charged in the per-opcode
// decompression counters — repeated fallback reads of the same variable count
// once, against the first op that needed the block.
func (c *CompressedMatrixObject) LocalBlock(op string) (*matrix.MatrixBlock, error) {
	blk, won, err := memoLocal(&c.mu, &c.local, c.decompress)
	if won {
		c.ctr.countDecompression(op)
	}
	return blk, err
}

// decompress materializes the local block, spanned as a compress
// "decompress" sub-phase.
func (c *CompressedMatrixObject) decompress() (*matrix.MatrixBlock, error) {
	cm, err := c.Compressed()
	if err != nil {
		return nil, err
	}
	sp := obs.Begin(obs.CatCompress, "decompress")
	blk := cm.Decompress()
	sp.EndBytes(blk.InMemorySize())
	return blk, nil
}

// Partitioned returns the row-range compressed partitioning of this object
// for the dist executors, memoized per partition size. The compressed matrix
// never decompresses: every partition shares the source dictionaries and
// re-bases only codes, runs and positions.
func (c *CompressedMatrixObject) Partitioned(rowsPerPart int) (*dist.CompressedBlocked, error) {
	c.mu.Lock()
	if c.part != nil && c.partSize == rowsPerPart {
		p := c.part
		c.mu.Unlock()
		return p, nil
	}
	c.mu.Unlock()
	cm, err := c.Compressed()
	if err != nil {
		return nil, err
	}
	p, err := dist.PartitionCompressed(cm, rowsPerPart)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.part == nil || c.partSize != rowsPerPart {
		c.part, c.partSize = p, rowsPerPart
	}
	p = c.part
	c.mu.Unlock()
	return p, nil
}

// PoolID implements bufferpool.Entry.
func (c *CompressedMatrixObject) PoolID() int64 { return c.id }

// MemorySize implements bufferpool.Entry.
func (c *CompressedMatrixObject) MemorySize() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cm == nil {
		return 0
	}
	return c.cm.InMemorySize()
}

// Evict implements bufferpool.Entry: the compressed bytes are written to the
// spill file — the compressed form is what hits disk — and both the
// compressed matrix and any decompression memo are dropped from memory.
func (c *CompressedMatrixObject) Evict(path string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cm == nil {
		return nil
	}
	if err := c.cm.WriteFile(path); err != nil {
		return err
	}
	c.spillPath = path
	c.cm = nil
	c.local = nil
	c.part = nil
	return nil
}

// IsPinned implements bufferpool.Entry. Compressed matrices are immutable, so
// in-flight readers keep their own reference and eviction is always safe.
func (c *CompressedMatrixObject) IsPinned() bool { return false }

// IsInMemory implements bufferpool.Entry.
func (c *CompressedMatrixObject) IsInMemory() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cm != nil
}
