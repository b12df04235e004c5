package runtime

import (
	"sync"
	"sync/atomic"
)

// DistStats is a snapshot of the distributed-backend counters of one context
// tree: how often a local matrix was partitioned into blocked form, how often
// a blocked matrix was collected back into a local block, and how many
// operators executed on the blocked backend. A chain of N blocked operators
// should cost one partition and at most one collect, not N of each.
type DistStats struct {
	Partitions int64
	Collects   int64
	BlockedOps int64
}

// FusedStats is a snapshot of the fused-operator hit counters of one context
// tree: how many fused mmchain and fused cellwise-aggregate instructions
// executed (the fusion analogue of DistStats, surfaced through core.Stats).
type FusedStats struct {
	MMChainOps  int64
	FusedAggOps int64
}

// CompressStats is a snapshot of the compressed-linear-algebra counters of
// one context tree: how many matrices were compressed (and how many the
// sample-based planner rejected), how many operators executed directly on the
// compressed representation, and how often an unsupported operator fell back
// to transparent decompression. An iterative workload on the compressed hot
// path should show compressions and compressed ops but zero decompressions.
type CompressStats struct {
	Compressions      int64
	Rejected          int64
	CompressedOps     int64
	Decompressions    int64
	BytesUncompressed int64
	BytesCompressed   int64
	// DecompressionsByOp attributes each fallback decompression to the opcode
	// (or runtime site label, e.g. "output") that triggered it, so a workload
	// that is NOT fully on the compressed path shows exactly which operators
	// forced materialization.
	DecompressionsByOp map[string]int64
}

// Counters is the per-run counter state of one context tree: every child
// context shares its root's instance, so the dist, fused and compressed
// counters of one execution accumulate in one place and are read back as
// the DistStats, FusedStats and CompressStats snapshots.
type Counters struct {
	Partitions, Collects, BlockedOps      atomic.Int64
	MMChainOps, FusedAggOps               atomic.Int64
	Compressions, Rejected, CompressedOps atomic.Int64
	BytesUncompressed, BytesCompressed    atomic.Int64

	mu                 sync.Mutex
	decompressionsByOp map[string]int64
}

// countDecompression records one fallback decompression attributed to op.
func (c *Counters) countDecompression(op string) {
	c.mu.Lock()
	if c.decompressionsByOp == nil {
		c.decompressionsByOp = map[string]int64{}
	}
	c.decompressionsByOp[op]++
	c.mu.Unlock()
}

// DistStats returns a snapshot of the distributed-backend counters.
func (c *Counters) DistStats() DistStats {
	return DistStats{Partitions: c.Partitions.Load(), Collects: c.Collects.Load(), BlockedOps: c.BlockedOps.Load()}
}

// FusedStats returns a snapshot of the fused-operator hit counters.
func (c *Counters) FusedStats() FusedStats {
	return FusedStats{MMChainOps: c.MMChainOps.Load(), FusedAggOps: c.FusedAggOps.Load()}
}

// CompressStats returns a snapshot of the compressed-linear-algebra counters.
func (c *Counters) CompressStats() CompressStats {
	s := CompressStats{
		Compressions:      c.Compressions.Load(),
		Rejected:          c.Rejected.Load(),
		CompressedOps:     c.CompressedOps.Load(),
		BytesUncompressed: c.BytesUncompressed.Load(),
		BytesCompressed:   c.BytesCompressed.Load(),
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.decompressionsByOp) > 0 {
		s.DecompressionsByOp = make(map[string]int64, len(c.decompressionsByOp))
		for op, n := range c.decompressionsByOp {
			s.DecompressionsByOp[op] = n
			s.Decompressions += n
		}
	}
	return s
}
