package drift

import (
	"math"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"repro/internal/mat"
	"repro/internal/preprocess"
	"repro/internal/telemetry"
)

// bruteDistance is the reference the index must reproduce bit for bit: the
// full scan over every stored row, canonical feature order, early-abandoned
// against the best so far.
func bruteDistance(fs *FeatureStats, row []float64) float64 {
	z := make([]float64, len(row))
	for j, v := range row {
		z[j] = (v - fs.Means[j]) / fs.Stds[j]
	}
	best := math.Inf(1)
	for i := 0; i < fs.Train.Rows; i++ {
		tr := fs.Train.Row(i)
		d := 0.0
		for j := range z {
			diff := z[j] - tr[j]
			d += diff * diff
			if d >= best {
				break
			}
		}
		if d < best {
			best = d
		}
	}
	return math.Sqrt(best)
}

// sameFloat reports bit equality, treating every NaN alike.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// assertMatchesBrute checks Distance against the reference on every row.
func assertMatchesBrute(t *testing.T, name string, fs *FeatureStats, rows *mat.Matrix) {
	t.Helper()
	for i := 0; i < rows.Rows; i++ {
		row := rows.Row(i)
		if got, want := fs.Distance(row), bruteDistance(fs, row); !sameFloat(got, want) {
			t.Fatalf("%s row %d: index distance %v (%#x), brute force %v (%#x)",
				name, i, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// Simulated covariance embeddings, shared by the equivalence test and the
// benchmark: the serving feature space, heavy tails included.
var (
	embedOnce                          sync.Once
	embedTrain, embedHeldOut, embedOOD *mat.Matrix
	embedErr                           error
)

const embedWindow = 60

func simulatedEmbeddings(tb testing.TB) (train, heldOut, ood *mat.Matrix) {
	tb.Helper()
	embedOnce.Do(func() {
		sim, err := telemetry.NewSimulator(telemetry.Config{Seed: 5, Scale: 0.03})
		if err != nil {
			embedErr = err
			return
		}
		var trainJobs, heldJobs []*telemetry.Job
		for i, j := range sim.Jobs() {
			if i%4 == 3 {
				heldJobs = append(heldJobs, j)
			} else {
				trainJobs = append(trainJobs, j)
			}
		}
		rawTrain := rawWindows(trainJobs, 8)
		// Per-sensor standardisation fitted on the training windows, as
		// the serving scaler is.
		sensors := int(telemetry.NumGPUSensors)
		flat, _ := mat.FromSlice(len(rawTrain)*embedWindow, sensors, concat(rawTrain))
		means := mat.ColumnMeans(flat)
		stds := mat.ColumnStds(flat, means)
		embed := func(wins [][]float64) *mat.Matrix {
			z := mat.New(len(wins), embedWindow*sensors)
			for i, w := range wins {
				dst := z.Row(i)
				for k, v := range w {
					c := k % sensors
					s := stds[c]
					if s == 0 {
						s = 1
					}
					dst[k] = (v - means[c]) / s
				}
			}
			out, err := preprocess.CovarianceEmbed(z, embedWindow, sensors)
			if err != nil {
				embedErr = err
			}
			return out
		}
		embedTrain = embed(rawTrain)
		embedHeldOut = embed(rawWindows(heldJobs, 4))
		embedOOD = embed(rawWindows(telemetry.UnknownJobs(12, 9), 8))
	})
	if embedErr != nil {
		tb.Fatal(embedErr)
	}
	return embedTrain, embedHeldOut, embedOOD
}

// rawWindows cuts up to perJob consecutive windows from each job's first
// GPU past the startup phase.
func rawWindows(jobs []*telemetry.Job, perJob int) [][]float64 {
	var out [][]float64
	for _, j := range jobs {
		for k := 0; k < perJob; k++ {
			t0 := 120 + float64(k*embedWindow)*telemetry.GPUSampleDT
			m, err := j.GPUWindow(0, t0, embedWindow)
			if err != nil {
				break
			}
			out = append(out, m.Data)
		}
	}
	return out
}

func concat(rows [][]float64) []float64 {
	var out []float64
	for _, r := range rows {
		out = append(out, r...)
	}
	return out
}

// gaussianRows draws n rows of width d at the given scale around zero.
func gaussianRows(rng *rand.Rand, n, d int, scale float64) *mat.Matrix {
	m := mat.New(n, d)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * scale
	}
	return m
}

func mustFit(t testing.TB, x *mat.Matrix) *FeatureStats {
	t.Helper()
	fs, err := FitFeatureStats(x)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestFeatureIndexMatchesBruteForce(t *testing.T) {
	train, heldOut, ood := simulatedEmbeddings(t)
	if train.Rows < 200 || heldOut.Rows < 50 || ood.Rows < 50 {
		t.Fatalf("embedding fixture too small: %d train, %d held-out, %d OOD rows", train.Rows, heldOut.Rows, ood.Rows)
	}
	fs := mustFit(t, train)
	assertMatchesBrute(t, "held-out", fs, heldOut)
	assertMatchesBrute(t, "unknown jobs", fs, ood)

	// Exact training rows (all stored: the fixture is under MaxTrainRows)
	// sit at distance 0, which the search must find through the rotation.
	assertMatchesBrute(t, "training rows", fs, train)
	if d := fs.Distance(train.Row(train.Rows / 2)); d != 0 {
		t.Fatalf("stored training row scored %v, want 0", d)
	}

	// Random rows at scales from near-duplicates to far out of support.
	rng := rand.New(rand.NewSource(3))
	for _, scale := range []float64{1e-12, 1e-6, 1e-3, 0.1, 1, 10, 1e3, 1e8} {
		q := mat.New(64, train.Cols)
		for i := 0; i < q.Rows; i++ {
			base := train.Row(rng.Intn(train.Rows))
			for j := range q.Row(i) {
				q.Row(i)[j] = base[j] + rng.NormFloat64()*scale*fs.Stds[j]
			}
		}
		assertMatchesBrute(t, "jittered", fs, q)
		assertMatchesBrute(t, "gaussian", fs, gaussianRows(rng, 64, train.Cols, scale))
	}
}

func TestFeatureIndexEdgeShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cases := []struct {
		name string
		x    *mat.Matrix
	}{
		{"one row", gaussianRows(rng, 1, 5, 1)},
		{"one feature", gaussianRows(rng, 300, 1, 1)},
		{"two rows", gaussianRows(rng, 2, 4, 3)},
		{"wider than the stack buffer", gaussianRows(rng, 150, stackDim+6, 1)},
		{"wider than the rotation cap", gaussianRows(rng, 20, maxPCADim+4, 1)},
		{"duplicates and ties", func() *mat.Matrix {
			// Four distinct rows repeated, on an integer lattice: many
			// queries sit exactly equidistant from several rows.
			m := mat.New(64, 3)
			for i := 0; i < m.Rows; i++ {
				for j := range m.Row(i) {
					m.Row(i)[j] = float64((i % 4) * (j + 1))
				}
			}
			return m
		}()},
		{"near-duplicate clusters", func() *mat.Matrix {
			// Rows a few rounding errors apart: the rotated distances are as
			// much rounding as signal, so only the slack keeps the search
			// exact.
			m := mat.New(400, 12)
			base := gaussianRows(rng, 8, 12, 3)
			for i := 0; i < m.Rows; i++ {
				for j := range m.Row(i) {
					m.Row(i)[j] = base.Row(i % 8)[j] + rng.NormFloat64()*1e-14
				}
			}
			return m
		}()},
		{"constant feature", func() *mat.Matrix {
			m := gaussianRows(rng, 100, 6, 2)
			for i := 0; i < m.Rows; i++ {
				m.Row(i)[2] = 7
			}
			return m
		}()},
	}
	for _, c := range cases {
		fs := mustFit(t, c.x)
		assertMatchesBrute(t, c.name+"/training", fs, c.x)
		jittered := mat.New(c.x.Rows, c.x.Cols)
		for i := range jittered.Data {
			jittered.Data[i] = c.x.Data[i] + rng.NormFloat64()*1e-14
		}
		assertMatchesBrute(t, c.name+"/jittered", fs, jittered)
		for _, scale := range []float64{0.5, 1, 4, 100} {
			assertMatchesBrute(t, c.name+"/random", fs, gaussianRows(rng, 40, c.x.Cols, scale))
		}
		lattice := mat.New(27, c.x.Cols)
		for i := 0; i < lattice.Rows; i++ {
			for j := range lattice.Row(i) {
				lattice.Row(i)[j] = float64((i+j)%3) * 0.5
			}
		}
		assertMatchesBrute(t, c.name+"/lattice", fs, lattice)
	}
}

func TestFeatureIndexNonFiniteQueries(t *testing.T) {
	train, _, _ := simulatedEmbeddings(t)
	fs := mustFit(t, train)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, 1e300} {
		for _, j := range []int{0, train.Cols / 2, train.Cols - 1} {
			row := append([]float64(nil), train.Row(3)...)
			row[j] = bad
			got, want := fs.Distance(row), bruteDistance(fs, row)
			if !sameFloat(got, want) {
				t.Fatalf("value %v at feature %d: index %v, brute force %v", bad, j, got, want)
			}
			if (math.IsNaN(bad) || math.IsInf(bad, 0)) && !math.IsInf(got, 1) {
				t.Fatalf("value %v at feature %d scored %v, want +Inf", bad, j, got)
			}
		}
	}
}

func TestFeatureIndexLazyLiteral(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	fitted := mustFit(t, gaussianRows(rng, 200, 6, 1))
	// A hand-built literal carries no index until its first Distance,
	// which concurrent callers must be able to trigger together.
	lit := &FeatureStats{Means: fitted.Means, Stds: fitted.Stds, Train: fitted.Train}
	queries := gaussianRows(rng, 50, 6, 2)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < queries.Rows; i++ {
				if got, want := lit.Distance(queries.Row(i)), bruteDistance(fitted, queries.Row(i)); got != want {
					t.Errorf("row %d: literal %v, brute force %v", i, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func FuzzFeatureDistance(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(40), 1.0, 0.0)
	f.Add(int64(2), uint8(28), uint8(200), 3.0, 1e-9)
	f.Add(int64(3), uint8(1), uint8(1), 0.0, 0.0)
	f.Add(int64(4), uint8(7), uint8(60), 1e6, math.NaN())
	f.Fuzz(func(t *testing.T, seed int64, dim, rows uint8, scale, shift float64) {
		d, n := int(dim)%40+1, int(rows)+1
		rng := rand.New(rand.NewSource(seed))
		// Coarse values make exact ties and duplicate rows common.
		x := mat.New(n, d)
		for i := range x.Data {
			x.Data[i] = math.Round(rng.NormFloat64() * 4)
		}
		fs := mustFit(t, x)
		for k := 0; k < 8; k++ {
			row := append([]float64(nil), x.Row(rng.Intn(n))...)
			for j := range row {
				row[j] += rng.NormFloat64()*scale + shift
			}
			if got, want := fs.Distance(row), bruteDistance(fs, row); !sameFloat(got, want) {
				t.Fatalf("index %v, brute force %v for %v", got, want, row)
			}
		}
	})
}

// BenchmarkFeatureDistance reports the gate's per-window cost on
// in-distribution and far out-of-distribution rows, against references of
// the benchmark artifact's size (800 rows) and the MaxTrainRows cap.
func BenchmarkFeatureDistance(b *testing.B) {
	train, heldOut, ood := simulatedEmbeddings(b)
	for _, refRows := range []int{800, MaxTrainRows} {
		// Resample the simulated rows up to the reference size, jittered
		// so the reference has no duplicates.
		rng := rand.New(rand.NewSource(int64(refRows)))
		x := mat.New(refRows, train.Cols)
		for i := 0; i < refRows; i++ {
			src := train.Row(i % train.Rows)
			for j, v := range src {
				x.Row(i)[j] = v * (1 + 0.01*rng.NormFloat64())
			}
		}
		fs, err := FitFeatureStats(x)
		if err != nil {
			b.Fatal(err)
		}
		for _, q := range []struct {
			name string
			rows *mat.Matrix
		}{{"in-dist", heldOut}, {"ood", ood}} {
			b.Run(q.name+"/ref"+strconv.Itoa(refRows), func(b *testing.B) {
				b.ReportAllocs()
				i := 0
				for b.Loop() {
					benchSink = fs.Distance(q.rows.Row(i % q.rows.Rows))
					i++
				}
			})
		}
	}
}

var benchSink float64
