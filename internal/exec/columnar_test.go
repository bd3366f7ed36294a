package exec

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"jigsaw/internal/blackbox"
	"jigsaw/internal/mc"
	"jigsaw/internal/param"
	"jigsaw/internal/rng"
	"jigsaw/internal/sqlparse"
)

// headroomSource is the benchmark's GRAPH scenario: capacity minus
// demand, both model calls with uniform arguments.
const headroomSource = `
DECLARE PARAMETER @current_week AS RANGE 0 TO 52 STEP BY 1;
DECLARE PARAMETER @purchase1 AS SET (8);
DECLARE PARAMETER @purchase2 AS SET (24);
DECLARE PARAMETER @feature_release AS SET (36);
SELECT CapacityModel(@current_week, @purchase1, @purchase2)
       - DemandModel(@current_week, @feature_release) AS headroom
INTO results`

// operatorsSource is TestCompileOperatorsAndBuiltins' script: every
// value is uniform, so the program is bind-time only.
const operatorsSource = `SELECT 2 + 3 * 4 AS a, ABS(0 - 5) AS b, MINV(3, 7) AS c, MAXV(3, 7) AS d,
	CASE WHEN 1 < 2 THEN 10 WHEN 1 = 1 THEN 20 END AS e, CASE WHEN 1 > 2 THEN 10 END AS f,
	NOT (1 < 2) AS g, (1 < 2) AND (3 >= 3) AS h, (1 <> 1) OR (2 <= 1) AS i, -(4 / 2) AS j`

// caseSource draws inside untaken WHEN/THEN arms, inside ELSEs (nested
// ones included) and through per-world calls, and mixes uniform and
// varying operands in every operator.
const caseSource = `
DECLARE PARAMETER @w AS RANGE 0 TO 60 STEP BY 1;
SELECT DemandModel(@w, 99) AS d,
       CASE WHEN d > @w THEN DemandModel(@w, 12)
            WHEN @w < 30 THEN CapacityModel(@w, d, 8)
            ELSE DemandModel(d, 99) * 2 END AS v,
       CASE WHEN @w > 20 THEN ABS(d - @w)
            ELSE CASE WHEN d < 5 THEN 0 ELSE DemandModel(@w, d) END END AS nested,
       MINV(v, nested) + MAXV(-d, NOT (v < 1)) / (1 + @w) AS mix,
       CASE WHEN @w >= 30 THEN 1 ELSE Noise(@w) END AS uniformwhen,
       (d <> v) OR (nested <= 0) AND (@w = 3) AS logic,
       DemandModel(@w, 99) AS after`

// noiseSource calls a blackbox.Func, which has no stream kernel, with
// uniform and with varying arguments.
const noiseSource = `
DECLARE PARAMETER @w AS RANGE 0 TO 60 STEP BY 1;
SELECT Noise(@w) AS a, Noise(a) + Noise(@w * 2) AS b`

// noiseBox is a model with no native block or stream kernel: two
// draws per call, one of them a cached-pair normal.
func noiseBox() blackbox.Box {
	return blackbox.Func{FuncName: "Noise", NArgs: 1, Fn: func(args []float64, r *rng.Rand) float64 {
		return r.Normal(args[0], 1) + r.Float64()
	}}
}

// propertyCase is one script of the bit-identity tests with the points
// they evaluate it at.
type propertyCase struct {
	name, src string
	reg       *blackbox.Registry
	points    []param.Point
}

func propertyCases() []propertyCase {
	reg := stdRegistry()
	reg.MustRegister(releaseWeekModel())
	reg.MustRegister(noiseBox())
	weeks := func(extra param.Point, ws ...float64) []param.Point {
		var ps []param.Point
		for _, w := range ws {
			ps = append(ps, extra.With("w", w))
		}
		return ps
	}
	return []propertyCase{
		{"fig1", figure1Source, reg, []param.Point{
			{"current_week": 0, "purchase1": 0, "purchase2": 0, "feature_release": 12},
			{"current_week": 30, "purchase1": 8, "purchase2": 16, "feature_release": 36},
			{"current_week": 50, "purchase1": 0, "purchase2": 4, "feature_release": 44},
		}},
		{"headroom", headroomSource, reg, []param.Point{
			{"current_week": 1, "purchase1": 8, "purchase2": 24, "feature_release": 36},
			{"current_week": 40, "purchase1": 8, "purchase2": 24, "feature_release": 36},
		}},
		{"fig5", figure5Source, reg, []param.Point{
			{"current_week": 10, "release_week": 52},
			{"current_week": 30, "release_week": 52},
			{"current_week": 30, "release_week": 20},
		}},
		{"operators", operatorsSource, reg, []param.Point{{}}},
		{"case", caseSource, reg, weeks(param.Point{}, 0, 3, 10, 25, 45)},
		{"func", noiseSource, reg, weeks(param.Point{}, 0, 7)},
	}
}

// compileBoth compiles a property case to the program and the oracle.
func compileBoth(t *testing.T, pc propertyCase) (*Scenario, *oracle) {
	t.Helper()
	script, err := sqlparse.Parse(pc.src)
	if err != nil {
		t.Fatal(err)
	}
	s, err := CompileScenario(script, pc.reg)
	if err != nil {
		t.Fatal(err)
	}
	o, err := compileOracle(script, pc.reg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Columns, o.cols) {
		t.Fatalf("columns %v, oracle %v", s.Columns, o.cols)
	}
	return s, o
}

// sameBits reports bit equality (NaN payloads included).
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestColumnarMatchesOracle holds every column's block evaluation to
// the oracle evaluating its world alone on a generator seeded with the
// world's seed, at every block size.
func TestColumnarMatchesOracle(t *testing.T) {
	seeds := make([]uint64, 1000)
	st := rng.New(0xB10C)
	for i := range seeds {
		seeds[i] = st.Uint64()
	}
	for _, pc := range propertyCases() {
		s, o := compileBoth(t, pc)
		for col, name := range s.Columns {
			ev, err := s.ColumnEval(name)
			if err != nil {
				t.Fatal(err)
			}
			bb := ev.(mc.BlockBinder)
			for _, p := range pc.points {
				args := bb.BindPoint(p, nil)
				want := make([]float64, len(seeds))
				row := make([]float64, col+1)
				var r rng.Rand
				for i, seed := range seeds {
					r.Seed(seed)
					o.row(p, &r, row)
					want[i] = row[col]
				}
				for _, width := range []int{1, 7, 10, 64, 256, 1000} {
					out := make([]float64, len(seeds))
					for lo := 0; lo < len(seeds); lo += width {
						hi := min(lo+width, len(seeds))
						bb.EvalBlockBound(args, out[lo:hi], seeds[lo:hi])
					}
					for i := range out {
						if !sameBits(out[i], want[i]) {
							t.Fatalf("%s/%s at %v, block %d: world %d = %v, oracle %v",
								pc.name, name, p, width, i, out[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestColumnarWidthOneContinuesStream runs the width-1 entry points
// several times on one generator without reseeding, as a Markov chain
// steps: values and the generator state after every call (stream
// position and cached normal variate) must match the oracle's.
func TestColumnarWidthOneContinuesStream(t *testing.T) {
	for _, pc := range propertyCases() {
		s, o := compileBoth(t, pc)
		for _, p := range pc.points {
			got, want := rng.New(41), rng.New(41)
			row, ref := make([]float64, len(s.Columns)), make([]float64, len(s.Columns))
			for k := 0; k < 5; k++ {
				if err := s.EvalRow(p, got, row); err != nil {
					t.Fatal(err)
				}
				o.row(p, want, ref)
				for i := range row {
					if !sameBits(row[i], ref[i]) {
						t.Fatalf("%s EvalRow %d at %v: %s = %v, oracle %v", pc.name, k, p, s.Columns[i], row[i], ref[i])
					}
				}
				if *got != *want {
					t.Fatalf("%s EvalRow %d at %v: generator state differs from the oracle's", pc.name, k, p)
				}
			}
			for col, name := range s.Columns {
				ev, _ := s.ColumnEval(name)
				bb := ev.(mc.BlockBinder)
				args := bb.BindPoint(p, nil)
				prefix := make([]float64, col+1)
				for k, call := range []func(r *rng.Rand) float64{
					func(r *rng.Rand) float64 { return bb.EvalBound(args, r) },
					func(r *rng.Rand) float64 { return ev.EvalPoint(p, r) },
				} {
					got, want := rng.New(uint64(7+k)), rng.New(uint64(7+k))
					for step := 0; step < 3; step++ {
						v := call(got)
						o.row(p, want, prefix)
						if !sameBits(v, prefix[col]) || *got != *want {
							t.Fatalf("%s/%s call %d step %d at %v: %v (state equal %v), oracle %v",
								pc.name, name, k, step, p, v, *got == *want, prefix[col])
						}
					}
				}
			}
		}
	}
}

// TestColumnarSweepBatchMatchesEvaluatePoint sweeps compiled columns
// through the engine's phased batch path at several worker counts and
// holds every result to a fresh engine's EvaluatePoint loop.
func TestColumnarSweepBatchMatchesEvaluatePoint(t *testing.T) {
	for _, pc := range propertyCases() {
		if pc.name == "operators" {
			continue // constant columns: nothing to sample
		}
		s, _ := compileBoth(t, pc)
		var points []param.Point
		for _, p := range pc.points {
			for _, d := range s.Space.Decls() {
				if _, ok := p[d.Name]; ok && d.Kind != param.KindChain {
					for _, v := range d.Domain()[:min(4, d.Cardinality())] {
						points = append(points, p.With(d.Name, v))
					}
				}
			}
		}
		for _, name := range s.Columns {
			ev, _ := s.ColumnEval(name)
			opts := mc.Options{Samples: 600, MasterSeed: 0x5EED, Reuse: true, ValidationSamples: 16, KeepSamples: true}
			ref := mc.MustNew(opts)
			var want []mc.PointResult
			for _, p := range points {
				want = append(want, ref.EvaluatePoint(ev, p))
			}
			wantStats := ref.Stats(len(points))
			for _, workers := range []int{1, 2, 4} {
				o := opts
				o.Workers = workers
				eng := mc.MustNew(o)
				got, st, err := eng.SweepBatch(ev, points)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s/%s workers=%d", pc.name, name, workers)
				if !reflect.DeepEqual(st, wantStats) {
					t.Fatalf("%s: stats %+v, EvaluatePoint loop %+v", label, st, wantStats)
				}
				for i := range got {
					if !reflect.DeepEqual(got[i].Summary, want[i].Summary) ||
						got[i].Reused != want[i].Reused || got[i].BasisID != want[i].BasisID {
						t.Fatalf("%s: point %v = %+v, EvaluatePoint %+v", label, points[i], got[i], want[i])
					}
				}
			}
		}
	}
}

// TestScenarioFullSimulationAllocs pins the compiled scenario's cold
// path to the engine's block pipeline: bound slots, frames and
// generators are pooled, so a full simulation's allocations do not
// grow with the sample count.
func TestScenarioFullSimulationAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc budgets are meaningless under the race detector (sync.Pool drops puts)")
	}
	s := compileFig1(t)
	ev, err := s.ColumnEval("overload")
	if err != nil {
		t.Fatal(err)
	}
	p := param.Point{"current_week": 30, "purchase1": 8, "purchase2": 16, "feature_release": 12}
	perPoint := func(samples int) float64 {
		e := mc.MustNew(mc.Options{Samples: samples, MasterSeed: 0x5161, Reuse: false, Workers: 1})
		e.EvaluatePoint(ev, p) // warm the pools
		return testing.AllocsPerRun(20, func() { e.EvaluatePoint(ev, p) })
	}
	small, large := perPoint(500), perPoint(8000)
	if large > small+0.5 || large > 2 {
		t.Errorf("full simulation allocates %.1f per point at 500 samples, %.1f at 8000; want ≤ 2 at both",
			small, large)
	}
}

// BenchmarkScenarioFullSimulation times compiled scenario rows through
// the engine's cold path (fingerprint block, then full-width blocks)
// and reports the cost per row: the benchmark's GRAPH headroom and
// Fig. 1's overload (both models and the CASE).
func BenchmarkScenarioFullSimulation(b *testing.B) {
	for _, bc := range []struct{ name, src, col string }{
		{"headroom", headroomSource, "headroom"},
		{"overload", figure1Source, "overload"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			script, err := sqlparse.Parse(bc.src)
			if err != nil {
				b.Fatal(err)
			}
			s, err := CompileScenario(script, stdRegistry())
			if err != nil {
				b.Fatal(err)
			}
			ev, err := s.ColumnEval(bc.col)
			if err != nil {
				b.Fatal(err)
			}
			const samples = 1000
			e := mc.MustNew(mc.Options{Samples: samples, MasterSeed: 0x5161, Reuse: false, Workers: 1})
			p := param.Point{"current_week": 30, "purchase1": 8, "purchase2": 24, "feature_release": 36}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.EvaluatePoint(ev, p)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*samples), "ns/row")
		})
	}
}
