// Package runtime implements the control program of SystemDS-Go
// (Section 2.3 of the paper): runtime data objects (scalars, matrices backed
// by the buffer pool, frames, lists, federated matrices), the execution
// context with its symbol table, program blocks for control flow including
// the parfor backend, dynamic recompilation hooks, and the integration of
// lineage tracing and the lineage-based reuse cache into instruction
// execution.
package runtime

import (
	"fmt"
	"strconv"
	"sync"

	"github.com/systemds/systemds-go/internal/bufferpool"
	"github.com/systemds/systemds-go/internal/dist"
	"github.com/systemds/systemds-go/internal/fed"
	"github.com/systemds/systemds-go/internal/frame"
	sdsio "github.com/systemds/systemds-go/internal/io"
	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/obs"
	"github.com/systemds/systemds-go/internal/types"
)

// Data is the common interface of all runtime values held in the symbol
// table. Runtime values are treated as immutable: instructions always create
// new objects for their outputs, which keeps parfor workers, the lineage
// cache and the buffer pool safe without fine-grained locking.
type Data interface {
	DataType() types.DataType
	String() string
}

// Scalar is a scalar runtime value of one of the supported value types.
type Scalar struct {
	VT types.ValueType
	F  float64
	S  string
	B  bool
}

// NewDouble creates an FP64 scalar.
func NewDouble(v float64) *Scalar { return &Scalar{VT: types.FP64, F: v} }

// NewInt creates an INT64 scalar.
func NewInt(v int64) *Scalar { return &Scalar{VT: types.INT64, F: float64(v)} }

// NewBool creates a boolean scalar.
func NewBool(v bool) *Scalar {
	f := 0.0
	if v {
		f = 1
	}
	return &Scalar{VT: types.Boolean, B: v, F: f}
}

// NewString creates a string scalar.
func NewString(s string) *Scalar { return &Scalar{VT: types.String, S: s} }

// DataType returns types.Scalar.
func (s *Scalar) DataType() types.DataType { return types.Scalar }

// Float64 returns the numeric value of the scalar (parsing strings if
// necessary).
func (s *Scalar) Float64() float64 {
	if s.VT == types.String {
		v, err := strconv.ParseFloat(s.S, 64)
		if err != nil {
			return 0
		}
		return v
	}
	return s.F
}

// Int64 returns the value truncated to an integer.
func (s *Scalar) Int64() int64 { return int64(s.Float64()) }

// Bool returns the boolean interpretation of the scalar.
func (s *Scalar) Bool() bool {
	if s.VT == types.Boolean {
		return s.B
	}
	if s.VT == types.String {
		return s.S == "TRUE" || s.S == "true"
	}
	return s.F != 0
}

// StringValue returns the string rendering of the scalar value.
func (s *Scalar) StringValue() string {
	switch s.VT {
	case types.String:
		return s.S
	case types.Boolean:
		if s.B {
			return "TRUE"
		}
		return "FALSE"
	case types.INT64, types.INT32:
		return strconv.FormatInt(int64(s.F), 10)
	default:
		return strconv.FormatFloat(s.F, 'g', -1, 64)
	}
}

// String implements Data.
func (s *Scalar) String() string { return s.StringValue() }

// LocalMatrix is the one read contract of every local matrix representation:
// a consumer that needs the cells calls LocalBlock and never asks how the
// value is stored. A MatrixObject acquires its block through the buffer
// pool, a BlockedMatrixObject collects its blocks lazily, and a
// CompressedMatrixObject decompresses transparently; the latter two memoize
// the local block and count the materialization once. op names the consuming
// opcode (or sink label) a fallback decompression is attributed to.
// FederatedObject deliberately does not implement it, so federated data is
// never pulled local by a generic read.
type LocalMatrix interface {
	Data
	DataCharacteristics() types.DataCharacteristics
	LocalBlock(op string) (*matrix.MatrixBlock, error)
}

var (
	_ LocalMatrix = (*MatrixObject)(nil)
	_ LocalMatrix = (*BlockedMatrixObject)(nil)
	_ LocalMatrix = (*CompressedMatrixObject)(nil)
	// compiles only while *FederatedObject has no LocalBlock method of its
	// own: one would collide with noLocalBlock's at the same depth, and the
	// ambiguous selector would leave federatedNotLocal without LocalBlock
	_ LocalMatrix = federatedNotLocal{}
)

type federatedNotLocal struct {
	*FederatedObject
	noLocalBlock
}

type noLocalBlock struct{}

func (noLocalBlock) LocalBlock(string) (*matrix.MatrixBlock, error) { return nil, nil }

// memoLocal returns the local block memoized in *slot (guarded by mu),
// building it on first use. Concurrent first readers may each build, but one
// result is kept for all and only the reader that stored it gets won, so a
// collect or decompression is counted once per materialization.
func memoLocal(mu *sync.Mutex, slot **matrix.MatrixBlock, build func() (*matrix.MatrixBlock, error)) (blk *matrix.MatrixBlock, won bool, err error) {
	mu.Lock()
	blk = *slot
	mu.Unlock()
	if blk != nil {
		return blk, false, nil
	}
	if blk, err = build(); err != nil {
		return nil, false, err
	}
	mu.Lock()
	if won = *slot == nil; won {
		*slot = blk
	}
	blk = *slot
	mu.Unlock()
	return blk, won, nil
}

// MatrixObject is the buffer-pool-backed handle of a matrix: it carries the
// data characteristics and either holds the block in memory or a reference to
// its spill file.
type MatrixObject struct {
	id        int64
	mu        sync.Mutex
	dc        types.DataCharacteristics
	block     *matrix.MatrixBlock
	spillPath string
	pool      *bufferpool.Pool
	// blocked memoizes the partitioned form of this object so named inputs
	// consumed by distributed operators in several DAGs partition once, not
	// once per DAG. Data objects are immutable — rebinding a variable creates
	// a new object — so the object identity IS the symbol-table entry's
	// version and the cache can never serve stale data. The memo is counted
	// in MemorySize (the pool is notified of the growth when it is stored)
	// and eviction drops it, so budget enforcement stays honest.
	blocked   *dist.BlockedMatrix
	blockedBS int
}

// NewMatrixObject wraps a matrix block into a managed matrix object and
// registers it with the pool (which may trigger evictions).
func NewMatrixObject(block *matrix.MatrixBlock, pool *bufferpool.Pool) *MatrixObject {
	mo := &MatrixObject{
		dc:    types.DataCharacteristics{Rows: int64(block.Rows()), Cols: int64(block.Cols()), Blocksize: types.DefaultBlocksize, NNZ: block.NNZ()},
		block: block,
		pool:  pool,
	}
	if pool != nil {
		mo.id = pool.NextID()
		pool.Register(mo)
	}
	return mo
}

// DataType returns types.Matrix.
func (m *MatrixObject) DataType() types.DataType { return types.Matrix }

// DataCharacteristics returns the matrix metadata without touching the data.
func (m *MatrixObject) DataCharacteristics() types.DataCharacteristics {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dc
}

// Acquire returns the in-memory matrix block, restoring it from the spill
// file if it was evicted by the buffer pool.
func (m *MatrixObject) Acquire() (*matrix.MatrixBlock, error) {
	m.mu.Lock()
	restored := false
	if m.block == nil {
		if m.spillPath == "" {
			m.mu.Unlock()
			return nil, fmt.Errorf("runtime: matrix object %d has neither data nor spill file", m.id)
		}
		sp := obs.Begin(obs.CatPool, "restore")
		blk, err := sdsio.ReadMatrixBinary(m.spillPath)
		if err != nil {
			sp.End()
			m.mu.Unlock()
			return nil, fmt.Errorf("runtime: restore evicted matrix: %w", err)
		}
		sp.EndBytes(blk.InMemorySize())
		m.block = blk
		restored = true
	}
	blk := m.block
	m.mu.Unlock()
	if m.pool != nil {
		m.pool.NotifyAccess(m, restored)
	}
	return blk, nil
}

// LocalBlock implements LocalMatrix by acquiring the block.
func (m *MatrixObject) LocalBlock(string) (*matrix.MatrixBlock, error) { return m.Acquire() }

// PoolID implements bufferpool.Entry.
func (m *MatrixObject) PoolID() int64 { return m.id }

// MemorySize implements bufferpool.Entry: the local block plus the memoized
// blocked form, if one is stored.
func (m *MatrixObject) MemorySize() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.block == nil {
		return 0
	}
	size := m.block.InMemorySize()
	if m.blocked != nil {
		size += m.blocked.InMemorySize()
	}
	return size
}

// Evict implements bufferpool.Entry: the block is written to the spill file
// and dropped from memory.
func (m *MatrixObject) Evict(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.block == nil {
		return nil
	}
	if err := sdsio.WriteMatrixBinary(path, m.block, types.DefaultBlocksize); err != nil {
		return err
	}
	m.spillPath = path
	m.block = nil
	m.blocked = nil
	return nil
}

// CachedBlocked returns the memoized partitioned form of the matrix for the
// given block size, if one was stored since the last eviction.
func (m *MatrixObject) CachedBlocked(blocksize int) (*dist.BlockedMatrix, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.blocked != nil && m.blockedBS == blocksize {
		return m.blocked, true
	}
	return nil, false
}

// StoreBlocked memoizes the partitioned form of the matrix so later
// distributed consumers of the same symbol-table entry reuse it, and reports
// the growth to the buffer pool so budget enforcement sees the copy. The
// first store wins: concurrent instructions racing to memoize the same input
// must notify the pool exactly once, and storing on an object the pool has
// already spilled is a no-op (the memo never outlives an eviction).
func (m *MatrixObject) StoreBlocked(bm *dist.BlockedMatrix, blocksize int) {
	m.mu.Lock()
	stored := false
	if m.block != nil && m.blocked == nil {
		m.blocked, m.blockedBS = bm, blocksize
		stored = true
	}
	m.mu.Unlock()
	if stored && m.pool != nil {
		m.pool.NotifyResize(m, bm.InMemorySize())
	}
}

// IsPinned implements bufferpool.Entry. Matrix data is immutable, so in-flight
// readers keep their own reference and eviction is always safe.
func (m *MatrixObject) IsPinned() bool { return false }

// IsInMemory implements bufferpool.Entry.
func (m *MatrixObject) IsInMemory() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.block != nil
}

// String implements Data.
func (m *MatrixObject) String() string {
	return fmt.Sprintf("Matrix%s", m.DataCharacteristics())
}

// FrameObject wraps a frame block.
type FrameObject struct {
	Frame *frame.FrameBlock
}

// NewFrameObject wraps a frame block.
func NewFrameObject(f *frame.FrameBlock) *FrameObject { return &FrameObject{Frame: f} }

// DataType returns types.Frame.
func (f *FrameObject) DataType() types.DataType { return types.Frame }

// String implements Data.
func (f *FrameObject) String() string { return f.Frame.String() }

// ListObject is an ordered, optionally named collection of runtime values
// (the DML list type used to pass around models and hyper-parameters).
type ListObject struct {
	Values []Data
	Names  []string
}

// NewListObject creates a list.
func NewListObject(values []Data, names []string) *ListObject {
	return &ListObject{Values: values, Names: names}
}

// DataType returns types.List.
func (l *ListObject) DataType() types.DataType { return types.List }

// String implements Data.
func (l *ListObject) String() string { return fmt.Sprintf("List[%d]", len(l.Values)) }

// Lookup returns the named element of the list.
func (l *ListObject) Lookup(name string) (Data, bool) {
	for i, n := range l.Names {
		if n == name && i < len(l.Values) {
			return l.Values[i], true
		}
	}
	return nil, false
}

// FederatedObject wraps a federated matrix so it can live in the symbol table
// like any other data object; federated instructions dispatch on it.
type FederatedObject struct {
	Fed *fed.FederatedMatrix
}

// NewFederatedObject wraps a federated matrix.
func NewFederatedObject(fm *fed.FederatedMatrix) *FederatedObject { return &FederatedObject{Fed: fm} }

// DataType returns types.Matrix (a federated matrix is a matrix to the
// compiler; only the runtime placement differs).
func (f *FederatedObject) DataType() types.DataType { return types.Matrix }

// DataCharacteristics returns the federated matrix metadata.
func (f *FederatedObject) DataCharacteristics() types.DataCharacteristics {
	return f.Fed.DataCharacteristics()
}

// String implements Data.
func (f *FederatedObject) String() string {
	return fmt.Sprintf("FederatedMatrix[%dx%d, %d ranges]", f.Fed.Rows, f.Fed.Cols, len(f.Fed.Ranges))
}

// SizeOf estimates the in-memory size of a runtime value in bytes (used by
// the reuse cache accounting).
func SizeOf(d Data) int64 {
	switch v := d.(type) {
	case *Scalar:
		return 64
	case *MatrixObject:
		return types.EstimateSize(v.DataCharacteristics())
	case *BlockedMatrixObject:
		return types.EstimateSize(v.DataCharacteristics())
	case *CompressedMatrixObject:
		return v.MemorySize()
	case *FrameObject:
		return int64(v.Frame.NumRows()*v.Frame.NumCols()) * 16
	case *ListObject:
		var s int64
		for _, e := range v.Values {
			s += SizeOf(e)
		}
		return s
	default:
		return 1024
	}
}
