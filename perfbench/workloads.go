package main

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"github.com/systemds/systemds-go/internal/baselines"
	sdsio "github.com/systemds/systemds-go/internal/io"
	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/runtime"
)

// relTol is the relative tolerance of every numeric output check.
const relTol = 1e-9

// instance is one workload with its inputs generated: what to execute and
// how to check what came out.
type instance struct {
	script  string
	inputs  map[string]any
	outputs []string
	// reuse and compress select the engine configuration.
	reuse, compress bool
	// check verifies the outputs of one execution against a reference that
	// does not go through the DML compiler or runtime.
	check func(out map[string]any) error
	// reset removes files an execution writes, so a check never reads a
	// stale file left by an earlier execution.
	reset func()
	// xBytes is the size of the matrix (X or t(X)) every ba+* streams, 0
	// when the products have mixed operands; readBytes is the input file
	// bytes one execution reads.
	xBytes, readBytes int64
}

// config returns a fresh engine configuration for one execution.
func (in *instance) config(dir string, trace, reuse bool) *runtime.Config {
	cfg := runtime.DefaultConfig()
	cfg.ReuseEnabled = reuse
	cfg.CompressionEnabled = in.compress
	cfg.TraceEnabled = trace
	cfg.TempDir = dir
	return cfg
}

// workload names a generator. writeFiles is false in a cold-start child
// process, which reuses the input files its parent wrote.
type workload struct {
	name    string
	prepare func(dir string, seed int64, writeFiles bool) (*instance, error)
}

var workloads = []workload{
	{"hyperparam", prepareHyperparam},
	{"lm_gd", func(dir string, seed int64, _ bool) (*instance, error) { return prepareLmGD(seed, false) }},
	{"lm_gd_cla", func(dir string, seed int64, _ bool) (*instance, error) { return prepareLmGD(seed, true) }},
	{"lifecycle", prepareLifecycle},
}

// Sizes of the generated inputs.
const (
	hpRows, hpCols, hpK = 20000, 100, 20
	gdRows, gdCols      = 20000, 200
	gdEpochs            = 20
	lcRows              = 20000
)

// hyperparamScript is the Section 4.1 grid-search script, verbatim as the
// experiments harness runs it.
const hyperparamScript = `
X = read($Xpath)
y = read($ypath)
lambdas = seq(1, $k, 1) / 1000
[B, losses] = gridSearchLM(X, y, lambdas)
write(B, $Bpath)
`

func prepareHyperparam(dir string, seed int64, writeFiles bool) (*instance, error) {
	x, y := matrix.SyntheticRegression(hpRows, hpCols, 1.0, seed)
	xPath, yPath := filepath.Join(dir, "X.csv"), filepath.Join(dir, "y.csv")
	if writeFiles {
		for path, m := range map[string]*matrix.MatrixBlock{xPath: x, yPath: y} {
			if err := sdsio.WriteMatrixCSV(path, m, sdsio.DefaultCSVOptions()); err != nil {
				return nil, err
			}
		}
	}
	var read int64
	for _, p := range []string{xPath, yPath} {
		st, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		read += st.Size()
	}
	lambdas := make([]float64, hpK)
	for i := range lambdas {
		lambdas[i] = float64(i+1) / 1000
	}
	ref, err := baselines.RunHyperParameterWorkload(baselines.Eager, x, y, lambdas, 0)
	if err != nil {
		return nil, fmt.Errorf("hyperparam reference: %w", err)
	}
	bPath := filepath.Join(dir, fmt.Sprintf("B-%d.csv", os.Getpid()))
	s := hyperparamScript
	s = strings.ReplaceAll(s, "$Xpath", strconv.Quote(xPath))
	s = strings.ReplaceAll(s, "$ypath", strconv.Quote(yPath))
	s = strings.ReplaceAll(s, "$Bpath", strconv.Quote(bPath))
	s = strings.ReplaceAll(s, "$k", strconv.Itoa(hpK))
	return &instance{
		script: s, reuse: true, readBytes: read, xBytes: int64(hpRows) * hpCols * 8,
		reset: func() { _ = os.Remove(bPath) },
		check: func(map[string]any) error {
			got, rows, cols, err := readCSV(bPath)
			if err != nil {
				return err
			}
			if rows != hpCols || cols != hpK {
				return fmt.Errorf("B is %dx%d, want %dx%d", rows, cols, hpCols, hpK)
			}
			for r := 0; r < rows; r++ {
				for c := 0; c < cols; c++ {
					if err := near(fmt.Sprintf("B[%d,%d]", r, c), got[r*cols+c], ref.Models.Get(r, c)); err != nil {
						return err
					}
				}
			}
			return nil
		},
	}, nil
}

// lmGDScript is the loop of scripts/lm_trace.dml over bound inputs.
var lmGDScript = fmt.Sprintf(`
w = matrix(0, rows=ncol(X), cols=1)
for (i in 1:%d) {
  q = X %%*%% w
  g = t(X) %%*%% (q - y)
  w = w - 0.0000001 * g
}
s = sum(w)
`, gdEpochs)

func prepareLmGD(seed int64, compress bool) (*instance, error) {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, gdRows*gdCols)
	for i := range xs {
		xs[i] = float64(rng.Intn(5))
	}
	ys := make([]float64, gdRows)
	for i := range ys {
		ys[i] = 2*rng.Float64() - 1
	}
	want := referenceGD(xs, ys)
	x := matrix.NewDenseFromSlice(gdRows, gdCols, xs)
	y := matrix.NewDenseFromSlice(gdRows, 1, ys)
	return &instance{
		script: lmGDScript, inputs: map[string]any{"X": x, "y": y}, outputs: []string{"s"},
		compress: compress, xBytes: int64(gdRows) * gdCols * 8,
		reset: func() {},
		check: func(out map[string]any) error {
			s, ok := out["s"].(float64)
			if !ok {
				return fmt.Errorf("output s is %T, want float64", out["s"])
			}
			return near("s", s, want)
		},
	}, nil
}

// referenceGD is the gradient-descent loop in plain Go.
func referenceGD(xs, ys []float64) float64 {
	w := make([]float64, gdCols)
	g := make([]float64, gdCols)
	for e := 0; e < gdEpochs; e++ {
		clear(g)
		for r := 0; r < gdRows; r++ {
			row := xs[r*gdCols : (r+1)*gdCols]
			q := 0.0
			for c, v := range row {
				q += v * w[c]
			}
			d := q - ys[r]
			for c, v := range row {
				g[c] += v * d
			}
		}
		for c := range w {
			w[c] -= 0.0000001 * g[c]
		}
	}
	s := 0.0
	for _, v := range w {
		s += v
	}
	return s
}

// The lifecycle generator: a categorical site, four numeric sensors and an
// energy target that is a known linear function of the sensors plus a
// per-site offset and noise. Temperature readings are missing (empty) with
// probability lcMissing. The site offsets make steplm select the same
// features for every seed (three dummies and the four sensors; the fourth
// dummy is collinear with its intercept), so every seed runs the same number
// of selection rounds.
var (
	lcSites   = []string{"graz", "linz", "salzburg", "vienna"}
	lcOffsets = []float64{0, 1, 2, 3}
)

const (
	lcMissing = 0.05
	lcNoiseSD = 0.1
	lcFeat    = 8 // 4 dummy-coded sites + 4 scaled sensors
)

// lcVariance returns Var(energy) and the part of it no model of the encoded
// features can explain: the noise plus the temperature effect of the rows
// whose reading is missing (imputed by the mean).
func lcVariance() (total, unexplained float64) {
	tempVar := 0.25 * 100.0 / 12 // (0.5 * U(15,25))
	offsetVar := 15.0 / 12       // uniform over the offsets 0..3
	total = tempVar + 9.0/12 + 1e-4*40000.0/12 + 4e-4*1600.0/12 + offsetVar + lcNoiseSD*lcNoiseSD
	return total, lcNoiseSD*lcNoiseSD + lcMissing*tempVar
}

const lifecycleScript = `
F = read($raw, data_type="frame", header=TRUE)
[X, M] = transformencode(target=F, spec="dummycode=site;impute=temperature:mean;scale=temperature,vibration,rpm,humidity")
nfeat = ncol(X) - 1
y = X[, ncol(X)]
X = X[, 1:nfeat]
X = winsorize(X, 0.02, 0.98)
write(X, $Xenc)
[cvErr, meanErr] = crossValLM(X, y, 5, 0.0001)
[B, S] = steplm(X, y, 0.0001, 0.001)
nsel = sum(S)
[Xtr, ytr, Xte, yte] = splitTrainTest(X, y, 0.8)
Bfinal = lmDS(Xtr, ytr, 0.0001)
yhat = lmPredict(Xte, Bfinal)
testR2 = r2(yhat, yte)
testRMSE = rmse(yhat, yte)
`

func prepareLifecycle(dir string, seed int64, writeFiles bool) (*instance, error) {
	rawPath := filepath.Join(dir, "raw.csv")
	counts, err := writeRawDataset(rawPath, seed, writeFiles)
	if err != nil {
		return nil, err
	}
	st, err := os.Stat(rawPath)
	if err != nil {
		return nil, err
	}
	encPath := filepath.Join(dir, fmt.Sprintf("Xenc-%d.csv", os.Getpid()))
	s := strings.ReplaceAll(lifecycleScript, "$raw", strconv.Quote(rawPath))
	s = strings.ReplaceAll(s, "$Xenc", strconv.Quote(encPath))
	total, unexplained := lcVariance()
	// Holdout R2 floor and error ceiling implied by the generator, with a
	// margin for sampling error and winsorized tails.
	r2Floor := 1 - 1.5*unexplained/total
	mseCeil := 1.5 * unexplained
	return &instance{
		script: s, reuse: true, readBytes: st.Size(),
		outputs: []string{"meanErr", "nsel", "testR2", "testRMSE"},
		reset:   func() { _ = os.Remove(encPath) },
		check: func(out map[string]any) error {
			v := map[string]float64{}
			for _, name := range []string{"meanErr", "nsel", "testR2", "testRMSE"} {
				f, ok := out[name].(float64)
				if !ok || math.IsNaN(f) || math.IsInf(f, 0) {
					return fmt.Errorf("output %s = %v, want a finite number", name, out[name])
				}
				v[name] = f
			}
			if v["testR2"] < r2Floor {
				return fmt.Errorf("holdout R2 %.4f below the generator's floor %.4f", v["testR2"], r2Floor)
			}
			if v["meanErr"] <= 0 || v["meanErr"] > mseCeil {
				return fmt.Errorf("cross-validation MSE %.4f outside (0, %.4f]", v["meanErr"], mseCeil)
			}
			if rmse := v["testRMSE"]; rmse*rmse > mseCeil {
				return fmt.Errorf("holdout RMSE %.4f above %.4f", rmse, math.Sqrt(mseCeil))
			}
			if v["nsel"] != lcFeat-1 {
				return fmt.Errorf("steplm selected %v features, want the %d that are not collinear", v["nsel"], lcFeat-1)
			}
			return checkEncoded(encPath, counts)
		},
	}, nil
}

// writeRawDataset generates the raw CSV (written only when write is set) and
// returns the row count of each site level.
func writeRawDataset(path string, seed int64, write bool) ([]int, error) {
	rng := rand.New(rand.NewSource(seed))
	counts := make([]int, len(lcSites))
	var sb strings.Builder
	sb.WriteString("site,temperature,vibration,rpm,humidity,energy\n")
	for i := 0; i < lcRows; i++ {
		site := rng.Intn(len(lcSites))
		counts[site]++
		temp := 15 + 10*rng.Float64()
		vib := rng.Float64()
		rpm := 900 + 200*rng.Float64()
		hum := 30 + 40*rng.Float64()
		energy := lcOffsets[site] + 0.5*temp + 3*vib + 0.01*rpm + 0.02*hum + lcNoiseSD*rng.NormFloat64()
		tempField := strconv.FormatFloat(temp, 'f', 3, 64)
		if rng.Float64() < lcMissing {
			tempField = ""
		}
		fmt.Fprintf(&sb, "%s,%s,%.3f,%.1f,%.2f,%.4f\n", lcSites[site], tempField, vib, rpm, hum, energy)
	}
	if !write {
		return counts, nil
	}
	return counts, os.WriteFile(path, []byte(sb.String()), 0o644)
}

// checkEncoded re-reads the written encoded matrix: it must have one row per
// raw row, one 0/1 column per site whose sums are the generated level counts
// (one hot per row), and four scaled sensor columns with mean ~0 and sd ~1
// (winsorizing at the 2%/98% quantiles shrinks the sd of a uniform column by
// a few percent).
func checkEncoded(path string, counts []int) error {
	vals, rows, cols, err := readCSV(path)
	if err != nil {
		return err
	}
	if rows != lcRows || cols != lcFeat {
		return fmt.Errorf("encoded matrix is %dx%d, want %dx%d", rows, cols, lcRows, lcFeat)
	}
	nd := len(lcSites)
	sums := make([]int, nd)
	for r := 0; r < rows; r++ {
		hot := 0
		for c := 0; c < nd; c++ {
			switch vals[r*cols+c] {
			case 1:
				hot++
				sums[c]++
			case 0:
			default:
				return fmt.Errorf("dummy cell [%d,%d] = %v, want 0 or 1", r, c, vals[r*cols+c])
			}
		}
		if hot != 1 {
			return fmt.Errorf("row %d has %d hot dummy columns, want 1", r, hot)
		}
	}
	want := append([]int(nil), counts...)
	sort.Ints(want)
	sort.Ints(sums)
	for i := range want {
		if sums[i] != want[i] {
			return fmt.Errorf("dummy column sums %v, want the level counts %v", sums, want)
		}
	}
	for c := nd; c < cols; c++ {
		mean, sd := 0.0, 0.0
		for r := 0; r < rows; r++ {
			mean += vals[r*cols+c]
		}
		mean /= float64(rows)
		for r := 0; r < rows; r++ {
			d := vals[r*cols+c] - mean
			sd += d * d
		}
		sd = math.Sqrt(sd / float64(rows-1))
		if math.Abs(mean) > 0.05 || math.Abs(sd-1) > 0.1 {
			return fmt.Errorf("scaled column %d has mean %.4f sd %.4f, want ~0 and ~1", c, mean, sd)
		}
	}
	return nil
}

// readCSV reads a headerless numeric CSV file without the engine's reader.
func readCSV(path string) (vals []float64, rows, cols int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		fields := strings.Split(sc.Text(), ",")
		if rows == 0 {
			cols = len(fields)
		} else if len(fields) != cols {
			return nil, 0, 0, fmt.Errorf("%s: row %d has %d fields, want %d", path, rows+1, len(fields), cols)
		}
		for _, fld := range fields {
			v, err := strconv.ParseFloat(strings.TrimSpace(fld), 64)
			if err != nil {
				return nil, 0, 0, fmt.Errorf("%s: row %d: %w", path, rows+1, err)
			}
			vals = append(vals, v)
		}
		rows++
	}
	if err := sc.Err(); err != nil {
		return nil, 0, 0, fmt.Errorf("%s: %w", path, err)
	}
	return vals, rows, cols, nil
}

// near checks got against want within relTol.
func near(what string, got, want float64) error {
	if math.Abs(got-want) <= relTol*math.Max(math.Abs(want), 1e-300) {
		return nil
	}
	return fmt.Errorf("%s = %.17g, reference %.17g (relative tolerance %g)", what, got, want, relTol)
}
