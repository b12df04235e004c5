package hops

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/systemds/systemds-go/internal/types"
)

func TestCalibrationFactorGating(t *testing.T) {
	c := NewCalibration()
	if f := c.Factor("ba+*"); f != 1.0 {
		t.Fatalf("factor of unknown opcode = %v, want 1", f)
	}
	// two observations stay below the gate
	c.Observe("ba+*", 100, 800)
	c.Observe("ba+*", 100, 800)
	if f := c.Factor("ba+*"); f != 1.0 {
		t.Fatalf("factor below minObservations = %v, want 1", f)
	}
	c.Observe("ba+*", 100, 800)
	if f := c.Factor("ba+*"); f <= 1.0 {
		t.Fatalf("factor after consistent 8x underestimates = %v, want > 1", f)
	}
	// degenerate pairs are ignored
	c.Observe("ba+*", -1, 800)
	c.Observe("ba+*", 100, 0)
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	// a nil calibration is inert
	var nilC *Calibration
	nilC.Observe("x", 1, 2)
	if nilC.Factor("x") != 1.0 || nilC.CorrectBytes("x", 10) != 10 {
		t.Error("nil calibration must be a no-op")
	}
}

func TestCalibrationClamps(t *testing.T) {
	c := NewCalibration()
	for i := 0; i < 50; i++ {
		c.Observe("op", 1, 1<<40) // absurd ratio, clamped at observation
	}
	if f := c.Factor("op"); f > calibFactorMax {
		t.Fatalf("factor = %v exceeds clamp %v", f, calibFactorMax)
	}
	c2 := NewCalibration()
	for i := 0; i < 50; i++ {
		c2.Observe("op", 1<<40, 1)
	}
	if f := c2.Factor("op"); f < calibFactorMin {
		t.Fatalf("factor = %v below clamp %v", f, calibFactorMin)
	}
}

func TestCalibrationSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "calibration.json")
	c := NewCalibration()
	for i := 0; i < 5; i++ {
		c.Observe("ba+*", 100, 400)
		c.Observe("tsmm", 100, 50)
	}
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
	// deterministic serialization: saving identical state twice is
	// byte-identical
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
	second, _ := os.ReadFile(path)
	if string(first) != string(second) {
		t.Error("repeated saves of identical state differ")
	}

	loaded := LoadCalibration(path)
	if got, want := loaded.Factor("ba+*"), c.Factor("ba+*"); got != want {
		t.Errorf("loaded ba+* factor = %v, want %v", got, want)
	}
	if got, want := loaded.Factor("tsmm"), c.Factor("tsmm"); got != want {
		t.Errorf("loaded tsmm factor = %v, want %v", got, want)
	}
	// missing and corrupt files degrade to an empty calibration
	if LoadCalibration(filepath.Join(dir, "missing.json")).Len() != 0 {
		t.Error("missing file must load empty")
	}
	os.WriteFile(path, []byte("{not json"), 0o644)
	if LoadCalibration(path).Len() != 0 {
		t.Error("corrupt file must load empty")
	}
}

// TestCalibrationShiftsCPDistCrossover is the acceptance test for the
// self-calibrating half of the adaptive runtime: synthetic PlanRecord history
// saying the static model underestimates matmult outputs 8x must flip an
// operator that statically fits the memory budget over the CP<->Dist gate.
func TestCalibrationShiftsCPDistCrossover(t *testing.T) {
	left, right := dc(256, 256), dc(256, 256)
	d, mm := matmultDAG(left, right)
	// budget sits just above the uncorrected estimate: CP without history
	budget := mm.MemEstimate + 1
	Plan(d, PlannerParams{MemBudget: budget, DistEnabled: true, Blocksize: 128})
	if mm.ExecType != types.ExecCP {
		t.Fatalf("uncalibrated plan = %s, want CP", mm.ExecType)
	}

	calib := NewCalibration()
	for i := 0; i < 5; i++ {
		calib.Observe("ba+*", 1000, 8000) // history: outputs 8x the estimate
	}
	d2, mm2 := matmultDAG(left, right)
	Plan(d2, PlannerParams{MemBudget: budget, DistEnabled: true, Blocksize: 128, Calib: calib})
	if mm2.ExecType != types.ExecDist {
		t.Fatalf("calibrated plan = %s, want DIST (crossover must shift)", mm2.ExecType)
	}
	if mm2.CostEst.OutputBytes <= mm.CostEst.OutputBytes {
		t.Errorf("corrected output estimate %d not above uncorrected %d",
			mm2.CostEst.OutputBytes, mm.CostEst.OutputBytes)
	}
}

// TestShuffleStageLatencyShiftsCrossover pins the satellite fix: near the
// gj<->sh break-even point, charging the sh strategy for its k sequential
// stages flips the decision to gj. At k=516 (blocksize 128) sh wins on pure
// movement bytes by ~4 KB, but its 5 stages cost 10 KB of latency.
func TestShuffleStageLatencyShiftsCrossover(t *testing.T) {
	const bs = 128
	budget := int64(16 << 10)
	left, right := dc(256, 516), dc(516, 128)
	sizeR := types.EstimateSize(right)
	outSize := types.EstimateSize(types.NewDataCharacteristics(256, 128, bs, -1))
	// preconditions of the scenario: sh beats gj on movement bytes alone
	// (sizeR < 2*sizeOut margin) but loses once stages are charged
	margin := sizeR - 2*outSize
	stages := gridDim(516, bs)
	if margin <= 0 || stages*shuffleStageLatencyBytes <= margin {
		t.Fatalf("scenario invalid: margin=%d stageCharge=%d", margin, stages*shuffleStageLatencyBytes)
	}
	if m, _ := ChooseMatMultStrategyCalibrated(left, right, bs, budget, nil, MachineProfile{}); m != types.MMGridJoin {
		t.Errorf("strategy at k=516 = %s, want gj once stage latency is priced", m)
	}
	// far from the break-even point the latency term must not flip anything
	if m, _ := ChooseMatMultStrategyCalibrated(dc(256, 768), dc(768, 128), bs, budget, nil, MachineProfile{}); m != types.MMShuffle {
		t.Errorf("strategy at k=768 = %s, want sh", m)
	}
}

// TestMachineProfileMeasureAndCache exercises the startup micro-benchmark and
// its disk cache.
func TestMachineProfileMeasureAndCache(t *testing.T) {
	if testing.Short() {
		t.Skip("micro-benchmark")
	}
	p := MeasureMachineProfile()
	if !p.Measured || p.GFLOPS <= 0 || p.MemBWBytes <= 0 || p.DispatchNs <= 0 {
		t.Fatalf("implausible profile: %+v", p)
	}
	path := filepath.Join(t.TempDir(), "profile.json")
	p1 := LoadOrMeasureProfile(path)
	if !p1.Measured {
		t.Fatal("first LoadOrMeasureProfile did not measure")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("profile not cached: %v", err)
	}
	p2 := LoadOrMeasureProfile(path)
	if p2 != p1 {
		t.Errorf("cached profile differs: %+v vs %+v", p2, p1)
	}
}

// TestProfileScoringPrefersFewerStages checks the seconds-based ranking: with
// a measured profile whose dispatch latency dominates, the chooser abandons
// the sh strategy for gj even where byte counts prefer sh.
func TestProfileScoringPrefersFewerStages(t *testing.T) {
	left, right := dc(256, 768), dc(768, 128)
	budget := int64(16 << 10)
	if m, _ := ChooseMatMultStrategyCalibrated(left, right, 128, budget, nil, MachineProfile{}); m != types.MMShuffle {
		t.Fatal("precondition: byte scoring must pick sh at k=768")
	}
	slowDispatch := MachineProfile{Measured: true, GFLOPS: 10, MemBWBytes: 1e9, DispatchNs: 1e9}
	m, _ := ChooseMatMultStrategyCalibrated(left, right, 128, budget, nil, slowDispatch)
	if m != types.MMGridJoin {
		t.Errorf("strategy under second-based scoring with slow dispatch = %s, want gj", m)
	}
}
