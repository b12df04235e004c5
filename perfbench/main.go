// Command perfbench is the repository's end-to-end benchmark. It runs one
// seeded DML workload (see workloads.go) through the engine's public
// functions — core.NewEngine, lang.Parse/lang.Validate,
// compiler.New(...).CompileProgram and Engine.Run — checks every output
// against a reference outside the DML compiler and runtime, and prints the
// metrics as the last line of standard output:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}
//
// Load shape: a closed loop with one client. One execution at a time runs in
// this process, each on a fresh engine, so the session reuse cache never
// carries over between executions. Kernel and parfor parallelism stay at the
// engine default (one thread per CPU).
//
// End-to-end metrics (--trace 0):
//   - exec_cpu_s: median CPU seconds (user + system, all threads) of one
//     warm execution, over the executions that follow the first for
//     --seconds. CPU time rather than wall time, because on a shared host
//     the wall time of the same execution moves by 15-25% between runs with
//     hypervisor steal; the wall-clock median is printed with the context.
//   - setup_s: median CPU seconds of the first, cold execution of a fresh
//     process: this process and two more started for it.
//   - peak_rss_mb: the largest resident set of this process (getrusage).
//
// With --trace 1 the warm loop alternates untraced and traced executions
// (plus traced executions with reuse off on the workloads that reuse) and
// reports per-layer metrics instead (see layers.go).
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload hyperparam --seed 1 --seconds 10 --trace 0
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	goruntime "runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"time"

	"github.com/systemds/systemds-go/internal/compiler"
	"github.com/systemds/systemds-go/internal/core"
	"github.com/systemds/systemds-go/internal/lang"
	"github.com/systemds/systemds-go/internal/lineage"
	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/runtime"
	"github.com/systemds/systemds-go/internal/types"
)

// outDir holds everything a run writes, relative to the working directory.
const outDir = ".bench_build/perfbench"

const (
	// coldChildren is the number of extra fresh processes that each make one
	// cold execution for setup_s.
	coldChildren = 2
	// minWarm is the least number of warm executions a --trace 0 run makes,
	// however long they take; a --trace 1 run makes at least one cycle.
	minWarm = 3
)

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input generator seed")
	seconds := flag.Float64("seconds", 10, "seconds of warm executions to measure")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced pass")
	cold := flag.Bool("cold", false, "make one cold execution and print its time (set-up child)")
	workdir := flag.String("workdir", "", "input directory of a set-up child")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *cold, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// bench is the state of one benchmark process.
type bench struct {
	wl     workload
	in     *instance
	dir    string
	rec    *recorder
	execID int // id of the current execution; 0 is input generation
	// attempted and failed count executions; firstCounts holds the exact
	// counters of the first execution of each configuration.
	attempted, failed int
	firstCounts       map[string]string
}

// sample is what one successful execution measured.
type sample struct {
	wall    float64
	spans   map[string]float64
	stats   *core.Stats
	allocMB float64
	gcs     float64
	gcPause float64
	cpu     float64 // process CPU seconds (user + system)
}

func run(name string, seed int64, seconds float64, trace, cold bool, workdir string) error {
	var wl workload
	for _, w := range workloads {
		if w.name == name {
			wl = w
		}
	}
	if wl.prepare == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	b := &bench{wl: wl, rec: newRecorder(), firstCounts: map[string]string{}}
	if cold {
		return b.coldChild(seed, workdir)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(outDir, "work-"+name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	b.dir = dir

	gen := b.rec.begin(0, 0, "inputs")
	b.in, err = wl.prepare(dir, seed, true)
	b.rec.end(gen)
	if err != nil {
		return fmt.Errorf("generate inputs: %w", err)
	}

	// The cold execution of this process.
	var setup []coldReport
	if s, err := b.execute(false, b.in.reuse); err == nil {
		setup = append(setup, coldReport{s.cpu, s.wall, ""})
	}
	var warm, traced, tracedNoReuse []*sample
	t0 := time.Now()
	limit := time.Duration(seconds * float64(time.Second))
	if !trace {
		for n := 0; n < minWarm || time.Since(t0) < limit; n++ {
			if s, err := b.execute(false, b.in.reuse); err == nil {
				warm = append(warm, s)
			}
		}
		for i := 0; i < coldChildren; i++ {
			if rep, err := b.spawnCold(seed); err == nil {
				setup = append(setup, rep)
			}
		}
	} else {
		for n := 0; n < 1 || time.Since(t0) < limit; n++ {
			if s, err := b.execute(false, b.in.reuse); err == nil {
				warm = append(warm, s)
			}
			if s, err := b.execute(true, b.in.reuse); err == nil {
				traced = append(traced, s)
			}
			if b.in.reuse {
				if s, err := b.execute(true, false); err == nil {
					tracedNoReuse = append(tracedNoReuse, s)
				}
			}
		}
	}
	if err := b.checkAcrossRuns(seed); err != nil {
		b.failed++
		fmt.Fprintln(os.Stderr, "perfbench: exact-count check across runs:", err)
	}

	metrics := map[string]metric{}
	samples := map[string]int{}
	ctx := map[string]any{
		"workload": name, "seed": seed, "trace": trace, "nproc": goruntime.NumCPU(),
		"gomaxprocs": goruntime.GOMAXPROCS(0), "go": goruntime.Version(), "revision": revision(),
		"build": buildID(), "samples": samples,
	}
	if !trace {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return fmt.Errorf("getrusage: %w", err)
		}
		var cpus, walls, setupCPU, setupWall []float64
		for _, s := range warm {
			cpus, walls = append(cpus, s.cpu), append(walls, s.wall)
		}
		for _, r := range setup {
			setupCPU, setupWall = append(setupCPU, r.CPU), append(setupWall, r.Wall)
		}
		metrics["exec_cpu_s"] = metric{median(cpus), "s"}
		metrics["setup_s"] = metric{median(setupCPU), "s"}
		metrics["peak_rss_mb"] = metric{float64(ru.Maxrss) / 1024, "MB"}
		samples["exec_cpu_s"], samples["setup_s"] = len(cpus), len(setupCPU)
		// Wall-clock medians, for reading alongside; on a shared host they
		// move with CPU steal, so no bound is set on them.
		ctx["exec_wall_s"], ctx["setup_wall_s"] = median(walls), median(setupWall)
	} else {
		metrics = layerMetrics(b.in, warm, traced, tracedNoReuse)
		samples["untraced"], samples["traced"], samples["traced_reuse_off"] = len(warm), len(traced), len(tracedNoReuse)
	}

	spansPath := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d-trace%d-%d.json", name, seed, btoi(trace), os.Getpid()))
	if err := b.rec.write(spansPath); err != nil {
		return err
	}
	ctx["spans"] = spansPath
	ctx["fail_ratio"] = float64(b.failed) / float64(max(b.attempted, 1))
	if trace && len(traced) > 0 {
		ctx["opcodes"] = opcodeTable(traced[len(traced)/2].stats)
	}
	line, err := json.Marshal(map[string]any{"context": ctx})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	line, err = json.Marshal(result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// coldReport is the last output line of a set-up child: CPU and wall
// seconds of its cold execution and that execution's exact counters.
type coldReport struct {
	CPU    float64 `json:"cpu_s"`
	Wall   float64 `json:"wall_s"`
	Counts string  `json:"counts"`
}

// coldChild makes the one cold execution of a set-up child, reusing the
// input files of its parent.
func (b *bench) coldChild(seed int64, workdir string) error {
	var err error
	b.dir = workdir
	if b.in, err = b.wl.prepare(workdir, seed, false); err != nil {
		return err
	}
	s, err := b.execute(false, b.in.reuse)
	if err != nil {
		return err
	}
	line, err := json.Marshal(coldReport{s.cpu, s.wall, countKey(s.stats, false)})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// spawnCold runs a set-up child process and returns its report. The child's
// counters must equal this process's cold execution's.
func (b *bench) spawnCold(seed int64) (coldReport, error) {
	b.attempted++
	rep, err := b.runColdChild(seed)
	if err == nil {
		err = b.sameCounts(fmt.Sprintf("stats/reuse=%v", b.in.reuse), rep.Counts)
	}
	if err != nil {
		b.failed++
		fmt.Fprintln(os.Stderr, "perfbench: set-up child:", err)
		return coldReport{}, err
	}
	return rep, nil
}

func (b *bench) runColdChild(seed int64) (coldReport, error) {
	var rep coldReport
	self, err := os.Executable()
	if err != nil {
		return rep, err
	}
	cmd := exec.Command(self, "--workload", b.wl.name, "--seed", strconv.FormatInt(seed, 10),
		"--cold", "--workdir", b.dir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return rep, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	return rep, json.Unmarshal(lines[len(lines)-1], &rep)
}

// execute makes one execution on a fresh engine and checks its outputs. A
// failed execution (error, panic, wrong output or changed counters) is
// counted and reported on standard error.
func (b *bench) execute(trace, reuse bool) (*sample, error) {
	b.attempted++
	b.in.reset()
	// Start every execution from a collected heap returned to the OS.
	debug.FreeOSMemory()
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	b.execID++
	root := b.rec.begin(b.execID, 0, "execution")
	out, st, err := b.engineCalls(b.in.config(b.dir, trace, reuse), root)
	b.rec.end(root)
	cpu1 := cpuSeconds()
	goruntime.ReadMemStats(&m1)
	if err == nil {
		err = b.in.check(out)
	}
	if err == nil {
		err = b.sameCounts(fmt.Sprintf("stats/reuse=%v", reuse), countKey(st, false))
	}
	if err == nil && trace {
		err = b.sameCounts(fmt.Sprintf("ops/reuse=%v", reuse), countKey(st, true))
	}
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s execution %d (trace=%v reuse=%v): %v\n", b.wl.name, b.execID, trace, reuse, err)
		return nil, err
	}
	spans := b.rec.durations(b.execID)
	return &sample{
		wall: spans["execution"], spans: spans, stats: st,
		allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6,
		gcs:     float64(m1.NumGC - m0.NumGC),
		gcPause: float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e9,
		cpu:     cpu1 - cpu0,
	}, nil
}

// engineCalls is one execution through the engine's public functions, each
// call under its own span.
func (b *bench) engineCalls(cfg *runtime.Config, root int) (out map[string]any, st *core.Stats, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	sp := b.rec.begin(b.execID, root, "core.engine")
	eng := core.NewEngine(cfg)
	eng.SetOutput(io.Discard)
	b.rec.end(sp)
	if cs := eng.CacheStats(); cs != (lineage.CacheStats{}) {
		return nil, nil, fmt.Errorf("reuse cache of a fresh engine is not empty: %+v", cs)
	}

	sp = b.rec.begin(b.execID, root, "lang.parse")
	comp := compiler.New(cfg, eng.Registry())
	prog, err := lang.Parse(b.in.script)
	if err == nil {
		err = lang.Validate(prog, comp.IsCallable(prog))
	}
	b.rec.end(sp)
	if err != nil {
		return nil, nil, err
	}

	sp = b.rec.begin(b.execID, root, "compiler.compile")
	rp, err := comp.CompileProgram(prog, knownInputs(b.in.inputs))
	b.rec.end(sp)
	if err != nil {
		return nil, nil, err
	}

	sp = b.rec.begin(b.execID, root, "core.run")
	out, st, err = eng.Run(rp, b.in.inputs, b.in.outputs)
	b.rec.end(sp)
	return out, st, err
}

// knownInputs gives the compiler the sizes of the bound matrix inputs, as
// Engine.Compile does.
func knownInputs(inputs map[string]any) map[string]types.DataCharacteristics {
	known := map[string]types.DataCharacteristics{}
	for name, v := range inputs {
		if m, ok := v.(*matrix.MatrixBlock); ok {
			known[name] = types.DataCharacteristics{Rows: int64(m.Rows()), Cols: int64(m.Cols()),
				Blocksize: types.DefaultBlocksize, NNZ: m.NNZ()}
		}
	}
	return known
}

// sameCounts records the exact counters of the first execution of a
// configuration and fails any later one that differs.
func (b *bench) sameCounts(key, counts string) error {
	first, ok := b.firstCounts[key]
	if !ok {
		b.firstCounts[key] = counts
		return nil
	}
	if first != counts {
		return fmt.Errorf("exact counters changed between executions: %s, first %s", counts, first)
	}
	return nil
}

// checkAcrossRuns compares the exact counters with those an earlier run of
// the same build, workload and seed recorded in this checkout, and records
// any not seen before.
func (b *bench) checkAcrossRuns(seed int64) error {
	path := filepath.Join(outDir, "counts", fmt.Sprintf("%s-seed%d-%s.json", b.wl.name, seed, buildID()))
	saved := map[string]string{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &saved); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	var mismatch error
	for key, v := range b.firstCounts {
		if old, ok := saved[key]; ok && old != v {
			mismatch = fmt.Errorf("%s: %s, an earlier run had %s", key, v, old)
		}
		saved[key] = v
	}
	if mismatch != nil {
		return mismatch
	}
	data, err := json.Marshal(saved)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// cpuSeconds is the user plus system CPU time this process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// median returns the median of vs, or 0 for none.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// revision is the VCS revision the binary was built from, when known.
func revision() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+modified"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	return "unknown"
}

// buildID is a short content hash of this binary, which changes with the
// engine or the benchmark code.
var buildID = sync.OnceValue(func() string {
	self, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile(self)
	if err != nil {
		return "unknown"
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:6])
})
