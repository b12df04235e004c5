package main

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"github.com/systemds/systemds-go/internal/core"
	"github.com/systemds/systemds-go/internal/obs"
)

// opNames maps engine opcodes to metric-name stems. Opcodes missing here
// fall back to legalName.
var opNames = map[string]string{
	"ba+*":            "matrix.mm",
	"r'":              "matrix.transpose",
	"tsmm":            "matrix.tsmm",
	"solve":           "matrix.solve",
	"mmchain":         "matrix.mmchain",
	"rightIndex":      "runtime.right_index",
	"leftIndex":       "runtime.left_index",
	"read":            "io.read",
	"write":           "io.write",
	"transformencode": "frame.transformencode",
	"compress":        "compress.compress",
	"+":               "op.plus",
	"-":               "op.minus",
	"*":               "op.mult",
	"/":               "op.div",
	"^":               "op.pow",
	"%%":              "op.mod",
	"%/%":             "op.intdiv",
	"==":              "op.eq",
	"!=":              "op.ne",
	"<":               "op.lt",
	"<=":              "op.le",
	">":               "op.gt",
	">=":              "op.ge",
	"&&":              "op.and",
	"||":              "op.or",
	"!":               "op.not",
	"uak+":            "op.sum",
	"ua+":             "op.sum",
}

// legalName turns an opcode into a metric-name stem: letters, digits, '_'
// and '.' only.
func legalName(op string) string {
	if n, ok := opNames[op]; ok {
		return n
	}
	var sb strings.Builder
	for _, r := range op {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '.':
			sb.WriteRune(r)
		default:
			fmt.Fprintf(&sb, "_%x", r)
		}
	}
	return "op." + sb.String()
}

// opcodeTable is the per-opcode instruction table of one traced execution
// under legal names: count and self seconds.
func opcodeTable(st *core.Stats) map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	for _, m := range st.OpMetrics {
		if m.Cat != obs.CatInstr {
			continue
		}
		name := legalName(m.Name)
		e := out[name]
		if e == nil {
			e = map[string]float64{}
			out[name] = e
		}
		e["count"] += float64(m.Count)
		e["self_s"] += float64(m.SelfNs) / 1e9
	}
	return out
}

// countKey renders the counters that must repeat exactly between executions
// of one configuration: lineage probes and partial hits, compression
// decisions, fused operators and blocked operators, and with ops set the
// instruction count per opcode of a traced execution. Full lineage hits are
// left out: the runtime admits a non-matrix result into the reuse cache only
// when computing it took over 100µs, so how probes split into hits and
// misses depends on timing (on lifecycle it moves between 540 and 575 of
// 2035 probes). Carry-over between executions is checked directly instead:
// each fresh engine's cache must be empty before its run.
func countKey(st *core.Stats, ops bool) string {
	if st == nil {
		return ""
	}
	if ops {
		perOp := map[string]int64{}
		for _, m := range st.OpMetrics {
			if m.Cat == obs.CatInstr {
				perOp[m.Name] += m.Count
			}
		}
		data, _ := json.Marshal(perOp) // map keys marshal sorted; cannot fail
		return string(data)
	}
	c, cs, f := st.CacheStats, st.CompressStats, st.FusedStats
	return fmt.Sprintf("lineage probes=%d partial=%d; compress n=%d rejected=%d ops=%d decompress=%d; mmchain=%d fusedagg=%d; blocked=%d",
		c.Hits+c.Misses, c.PartialHits, cs.Compressions, cs.Rejected, cs.CompressedOps, cs.Decompressions,
		f.MMChainOps, f.FusedAggOps, st.DistStats.BlockedOps)
}

// Units of the per-layer metrics.
const (
	unitS     = "s"
	unitCount = "count"
	unitRatio = "ratio"
)

// layerMetrics derives the per-layer metrics of a traced pass. Times are
// medians over the traced executions; counters are exact and equal in every
// execution (the exact-count check enforces it). The go.* metrics come from
// the untraced executions, the lineage.reuse_net_s difference from the
// traced executions with reuse off.
func layerMetrics(in *instance, untraced, traced, noReuse []*sample) map[string]metric {
	per := func(ss []*sample, f func(*sample) float64) float64 {
		vs := make([]float64, len(ss))
		for i, s := range ss {
			vs[i] = f(s)
		}
		return median(vs)
	}
	span := func(name string) func(*sample) float64 {
		return func(s *sample) float64 { return s.spans[name] }
	}
	// op sums wall or self seconds, or counts, of one span class.
	op := func(cat string, names []string, field string) func(*sample) float64 {
		return func(s *sample) float64 {
			v := 0.0
			for _, m := range s.stats.OpMetrics {
				if m.Cat != cat || (names != nil && !slices.Contains(names, m.Name)) {
					continue
				}
				switch field {
				case "wall":
					v += float64(m.WallNs) / 1e9
				case "self":
					v += float64(m.SelfNs) / 1e9
				case "count":
					v += float64(m.Count)
				}
			}
			return v
		}
	}
	instr := func(name, field string) float64 { return per(traced, op(obs.CatInstr, []string{name}, field)) }
	stat := func(f func(*core.Stats) float64) float64 {
		return per(traced, func(s *sample) float64 { return f(s.stats) })
	}

	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	put("core.engine_s", per(traced, span("core.engine")), unitS)
	put("lang.parse_s", per(traced, span("lang.parse")), unitS)
	put("compiler.compile_s", per(traced, span("compiler.compile")), unitS)
	runS := per(traced, span("core.run"))
	put("core.run_s", runS, unitS)

	runWall := per(traced, op(obs.CatRun, nil, "wall"))
	blockSelf := per(traced, op(obs.CatBlock, nil, "self"))
	runSelf := per(traced, op(obs.CatRun, nil, "self"))
	put("runtime.block_self_s", blockSelf, unitS)
	put("runtime.instr_s", per(traced, op(obs.CatInstr, nil, "self")), unitS)
	put("runtime.instr_count", per(traced, op(obs.CatInstr, nil, "count")), unitCount)
	put("runtime.coverage", ratio(runWall-blockSelf-runSelf, runWall), unitRatio)

	mmS, mmN := instr("ba+*", "wall"), instr("ba+*", "count")
	put("matrix.mm_s", mmS, unitS)
	put("matrix.mm_count", mmN, unitCount)
	put("matrix.transpose_s", instr("r'", "wall"), unitS)
	put("matrix.transpose_count", instr("r'", "count"), unitCount)
	put("matrix.tsmm_s", instr("tsmm", "wall"), unitS)
	put("matrix.solve_s", instr("solve", "wall"), unitS)
	put("runtime.index_s", per(traced, op(obs.CatInstr, []string{"rightIndex", "leftIndex"}, "wall")), unitS)
	put("matrix.mv_gb_per_s", ratio(float64(in.xBytes)*mmN/1e9, mmS), "GB/s-computed")

	readS := instr("read", "wall")
	put("io.read_s", readS, unitS)
	put("io.read_mb_per_s", ratio(float64(in.readBytes)/1e6, readS), "MB/s-computed")
	put("io.write_s", instr("write", "wall"), unitS)
	put("frame.transformencode_s", instr("transformencode", "wall"), unitS)

	put("compress.encode_s", per(traced, op(obs.CatCompress, []string{"encode"}, "wall")), unitS)
	put("compress.ratio", stat(func(st *core.Stats) float64 {
		return ratio(float64(st.CompressStats.BytesUncompressed), float64(st.CompressStats.BytesCompressed))
	}), unitRatio)
	put("compress.compressions", stat(func(st *core.Stats) float64 { return float64(st.CompressStats.Compressions) }), unitCount)
	put("compress.compressed_ops", stat(func(st *core.Stats) float64 { return float64(st.CompressStats.CompressedOps) }), unitCount)
	put("compress.decompressions", stat(func(st *core.Stats) float64 { return float64(st.CompressStats.Decompressions) }), unitCount)
	put("compress.rejected", stat(func(st *core.Stats) float64 { return float64(st.CompressStats.Rejected) }), unitCount)

	probes := stat(func(st *core.Stats) float64 { return float64(st.CacheStats.Hits + st.CacheStats.Misses) })
	hits := stat(func(st *core.Stats) float64 { return float64(st.CacheStats.Hits) })
	partial := stat(func(st *core.Stats) float64 { return float64(st.CacheStats.PartialHits) })
	put("lineage.probes", probes, unitCount)
	put("lineage.hits", hits, unitCount)
	put("lineage.partial_hits", partial, unitCount)
	put("lineage.hit_ratio", ratio(hits+partial, probes), unitRatio)
	put("lineage.bytes_cached", stat(func(st *core.Stats) float64 { return float64(st.CacheStats.BytesCached) }), "bytes")
	reuseNet := 0.0
	if len(noReuse) > 0 {
		reuseNet = per(noReuse, span("core.run")) - runS
	}
	put("lineage.reuse_net_s", reuseNet, unitS)

	put("hops.mmchain_ops", stat(func(st *core.Stats) float64 { return float64(st.FusedStats.MMChainOps) }), unitCount)
	put("hops.fused_agg_ops", stat(func(st *core.Stats) float64 { return float64(st.FusedStats.FusedAggOps) }), unitCount)
	put("bufferpool.spills", stat(func(st *core.Stats) float64 { return float64(st.PoolStats.Evictions) }), unitCount)
	put("dist.blocked_ops", stat(func(st *core.Stats) float64 { return float64(st.DistStats.BlockedOps) }), unitCount)

	put("go.alloc_mb", per(untraced, func(s *sample) float64 { return s.allocMB }), "MB")
	put("go.gc_cycles", per(untraced, func(s *sample) float64 { return s.gcs }), unitCount)
	put("go.gc_pause_s", per(untraced, func(s *sample) float64 { return s.gcPause }), unitS)

	put("trace.overhead_ratio", ratio(per(traced, span("execution")), per(untraced, span("execution")))-1, unitRatio)
	put("trace.dropped", stat(func(st *core.Stats) float64 { return float64(st.TraceDropped) }), unitCount)
	return m
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
