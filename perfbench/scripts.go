package main

// The two script-to-answer workloads: a Fig. 1 .jsq scenario through
// sqlparse.Parse → exec.CompileScenario → optimize.Run or
// exec.RunGraph, with a fresh engine per request.

import (
	"fmt"
	"math"
	"time"

	"jigsaw/internal/blackbox"
	"jigsaw/internal/exec"
	"jigsaw/internal/mc"
	"jigsaw/internal/optimize"
	"jigsaw/internal/param"
	"jigsaw/internal/sqlparse"
)

// capacityRegistry registers the examples/cloudcapacity models,
// wrapped when tr is set. rows tallies DemandModel, which every
// scenario row draws exactly once.
func capacityRegistry(tr *tracer) (reg *blackbox.Registry, rows *boxMeters, err error) {
	demand := blackbox.NewDemand()
	demand.BaseRate = 2.5
	demand.BaseVarRate = 1
	demand.FeatureRate = 0.3
	demand.FeatureVarRate = 0.3
	reg = blackbox.NewRegistry()
	for i, b := range []blackbox.Box{demand, blackbox.NewCapacity()} {
		if tr != nil {
			var m *boxMeters
			b, m = tr.box(b)
			if i == 0 {
				rows = m
			}
		}
		if err := reg.Register(b); err != nil {
			return nil, nil, err
		}
	}
	return reg, rows, nil
}

// script runs one .jsq source through the parser and compiler, timing
// both for the tracer.
type script struct {
	src string
	reg *blackbox.Registry
	tr  *tracer
}

func (s script) compile() (*sqlparse.Script, *exec.Scenario, error) {
	start := time.Now()
	ast, err := sqlparse.Parse(s.src)
	if err != nil {
		return nil, nil, err
	}
	parsed := time.Now()
	sc, err := exec.CompileScenario(ast, s.reg)
	if err != nil {
		return nil, nil, err
	}
	if s.tr != nil {
		s.tr.observe("sqlparse.parse_us", float64(parsed.Sub(start))/1e3)
		s.tr.observe("exec.compile_us", float64(time.Since(parsed))/1e3)
	}
	return ast, sc, nil
}

// observeRun records the figures of one traced engine call: its CPU
// time outside the models and mapping discovery, in total (mc.self_ms)
// and per scenario row drawn (exec.ns_per_sample).
func observeRun(tr *tracer, rows *boxMeters, before tally, rows0 int64, cpu time.Duration) tally {
	d := tr.snapshot().minus(before)
	tr.observeModels(d)
	self := float64(cpu) - float64(d.modelNs) - float64(d.findNs)
	tr.observe("mc.self_ms", self/1e6)
	if n := rows.draws.Load() - rows0; n > 0 {
		tr.observe("exec.ns_per_sample", self/float64(n))
	}
	return d
}

// fig1Source is the reduced Fig. 1 scenario: the cloudcapacity example
// with purchases on a coarser grid.
const fig1Source = `
DECLARE PARAMETER @current_week AS RANGE 0 TO 52 STEP BY %d;
DECLARE PARAMETER @purchase1 AS RANGE 0 TO 52 STEP BY %d;
DECLARE PARAMETER @purchase2 AS RANGE 0 TO 52 STEP BY %d;
DECLARE PARAMETER @feature_release AS SET (12, 36, 44);

SELECT DemandModel(@current_week, @feature_release)           AS demand,
       CapacityModel(@current_week, @purchase1, @purchase2)   AS capacity,
       CASE WHEN capacity < demand THEN 1 ELSE 0 END          AS overload
INTO results;

OPTIMIZE SELECT @feature_release, @purchase1, @purchase2
FROM results
WHERE MAX(EXPECT overload) < 0.02
GROUP BY feature_release, purchase1, purchase2
FOR MAX @purchase1, MAX @purchase2
`

// optimizeFig1 is the reuse-read workload: most points map onto a
// basis after 64 validation draws.
//
// How many points a master seed leaves to full simulation varies from
// about 100 to 250, so one master seed per run made the request cost
// depend on the run's seed by up to 25%. A unit is therefore a cycle of
// masterSeeds requests, one per master seed the run's seed derives;
// requests in the same slot do identical work.
type optimizeFig1 struct {
	script
	opts mc.Options
	// seeds are the unit's master seeds; next is the next request's slot.
	seeds []uint64
	next  int
	rows  *boxMeters
}

// masterSeeds is the number of engine master seeds in an optimize_fig1
// unit.
const masterSeeds = 16

// plan is an OPTIMIZE answer.
type plan struct {
	chosen   string // chosen group's key; "" when no group is feasible
	feasible int
	groups   int
}

func newOptimizeFig1(seed uint64, sz sizes, tr *tracer) (workload, error) {
	reg, rows, err := capacityRegistry(tr)
	if err != nil {
		return nil, err
	}
	st := splitmix(seed)
	w := &optimizeFig1{
		script: script{src: fmt.Sprintf(fig1Source, sz.weekStep, sz.purchaseStep, sz.purchaseStep), reg: reg, tr: tr},
		opts: mc.Options{
			Samples: sz.samples, Reuse: true, KeepSamples: true,
			ValidationSamples: sz.validation, Workers: workers,
		},
		rows: rows,
	}
	for i := 0; i < masterSeeds; i++ {
		w.seeds = append(w.seeds, st.next())
	}
	if tr != nil {
		w.opts.Class = tr.class()
	}
	return w, nil
}

func (w *optimizeFig1) unit() int { return len(w.seeds) }

func (w *optimizeFig1) request() (outcome, error) {
	slot := w.next
	w.next = (slot + 1) % len(w.seeds)
	opts := w.opts
	opts.MasterSeed = w.seeds[slot]
	ast, sc, err := w.compile()
	if err != nil {
		return outcome{}, err
	}
	var before tally
	var rows0 int64
	var cpu0 time.Duration
	if w.tr != nil {
		before, rows0, cpu0 = w.tr.snapshot(), w.rows.draws.Load(), cpuTime()
	}
	start := time.Now()
	res, err := optimize.Run(sc, ast.Optimize, opts)
	if err != nil {
		return outcome{}, err
	}
	runMs := float64(time.Since(start)) / 1e6
	st := res.Stats
	work := map[string]int64{
		"mc.points":       int64(st.Points),
		"mc.full_sims":    int64(st.FullSimulations),
		"mc.reused":       int64(st.Reused),
		"core.queries":    int64(st.Store.Queries),
		"core.hits":       int64(st.Store.Hits),
		"core.bases":      int64(st.Store.Bases),
		"core.candidates": int64(st.Store.CandidatesScanned),
	}
	if w.tr != nil {
		d := observeRun(w.tr, w.rows, before, rows0, cpuTime()-cpu0)
		w.tr.observe("optimize.run_ms", runMs)
		for k, v := range work {
			if k != "core.candidates" {
				w.tr.observe(k, float64(v))
			}
		}
		w.tr.observe("mc.reuse_ratio", float64(st.Reused)/float64(st.Points))
		w.tr.observe("core.candidates_per_query", float64(st.Store.CandidatesScanned)/float64(st.Store.Queries))
		work["blackbox.evals"] = d.draws
	}
	return outcome{slot: slot, work: work, answer: answerPlan(res)}, nil
}

func answerPlan(res *optimize.Result) plan {
	p := plan{feasible: res.Feasible, groups: res.Groups}
	if res.Chosen != nil {
		p.chosen = res.Chosen.Key()
	}
	return p
}

// truth is, for every slot, the same OPTIMIZE under full evaluation:
// no reuse, every point simulated with the same sample seeds.
func (w *optimizeFig1) truth() (any, error) {
	ast, sc, err := script{src: w.src, reg: w.reg}.compile()
	if err != nil {
		return nil, err
	}
	ref := make([]plan, len(w.seeds))
	for i, seed := range w.seeds {
		opts := w.opts
		opts.Reuse = false
		opts.ValidationSamples = 0
		opts.MasterSeed = seed
		res, err := optimize.Run(sc, ast.Optimize, opts)
		if err != nil {
			return nil, err
		}
		ref[i] = answerPlan(res)
	}
	return ref, nil
}

// check reports the feasible-group error. A request fails on its own
// only if it answers a different question (a different group count).
// A plan different from full evaluation's is a mismatch: the healthy
// approximation picks another plan on about one master seed in five.
func (w *optimizeFig1) check(ref any, o outcome) verdict {
	r, got := ref.([]plan)[o.slot], o.answer.(plan)
	return verdict{
		err:      math.Abs(float64(got.feasible-r.feasible)) / float64(r.groups),
		ok:       got.groups == r.groups,
		mismatch: got.chosen != r.chosen,
	}
}

// maxMeanErr bounds the feasible-group error averaged over a unit's
// master seeds. One master seed alone does not separate a healthy
// approximation from a broken one: over 48 master seeds, the error
// with 64 validation draws reached 10 of 147 groups (0.068), and 14
// (0.095) in a benchmark run, while without validation it was 0 to 30
// groups. Averaged over eight master seeds, half a unit, it was at
// most 0.018 with validation and at least 0.062 without.
func (w *optimizeFig1) maxMeanErr() float64 { return 0.04 }

func (w *optimizeFig1) corrupt(ref any) any {
	wrong := append([]plan(nil), ref.([]plan)...)
	for i := range wrong {
		wrong[i].chosen = "corrupted"
		wrong[i].feasible += wrong[i].groups / 2
	}
	return wrong
}

// graphSource is GRAPH over one week sweep of the headroom between
// capacity and demand, with the other parameters fixed by the seed.
const graphSource = `
DECLARE PARAMETER @current_week AS RANGE 0 TO %d STEP BY 1;
DECLARE PARAMETER @purchase1 AS SET (%d);
DECLARE PARAMETER @purchase2 AS SET (%d);
DECLARE PARAMETER @feature_release AS SET (%d);

SELECT CapacityModel(@current_week, @purchase1, @purchase2)
       - DemandModel(@current_week, @feature_release) AS headroom
INTO results;

GRAPH OVER @current_week EXPECT headroom WITH blue
`

// graphCold is the cold-path workload: no swept point maps onto
// another, so every point is a full simulation through the scenario
// interpreter.
type graphCold struct {
	script
	fixed param.Point
	opts  mc.Options
	rows  *boxMeters
}

func newGraphCold(seed uint64, sz sizes, tr *tracer) (workload, error) {
	reg, rows, err := capacityRegistry(tr)
	if err != nil {
		return nil, err
	}
	st := splitmix(seed)
	p1, p2 := 4*st.intn(14), 4*st.intn(14)
	feature := []int{12, 36, 44}[st.intn(3)]
	w := &graphCold{
		script: script{src: fmt.Sprintf(graphSource, sz.graphWeeks-1, p1, p2, feature), reg: reg, tr: tr},
		fixed:  param.Point{"purchase1": float64(p1), "purchase2": float64(p2), "feature_release": float64(feature)},
		opts:   mc.Options{Samples: sz.samples, Reuse: true, Workers: workers, MasterSeed: st.next()},
		rows:   rows,
	}
	if tr != nil {
		w.opts.Class = tr.class()
	}
	return w, nil
}

func (w *graphCold) unit() int { return 1 }

func (w *graphCold) request() (outcome, error) {
	ast, sc, err := w.compile()
	if err != nil {
		return outcome{}, err
	}
	var before tally
	var rows0 int64
	var cpu0 time.Duration
	if w.tr != nil {
		before, rows0, cpu0 = w.tr.snapshot(), w.rows.draws.Load(), cpuTime()
	}
	res, err := exec.RunGraph(sc, ast.Graph, w.fixed, w.opts)
	if err != nil {
		return outcome{}, err
	}
	st := res.Stats
	work := map[string]int64{
		"mc.points":    int64(st.Points),
		"mc.full_sims": int64(st.FullSimulations),
		"mc.reused":    int64(st.Reused),
	}
	if w.tr != nil {
		d := observeRun(w.tr, w.rows, before, rows0, cpuTime()-cpu0)
		for k, v := range work {
			w.tr.observe(k, float64(v))
		}
		w.tr.observe("mc.reuse_ratio", float64(st.Reused)/float64(st.Points))
		// GraphResult.Stats carries no store counters, so the index
		// work per query is read from the wrapped mapping class: every
		// swept point queries the store once.
		w.tr.observe("core.candidates_per_query", float64(d.findCalls)/float64(st.Points))
		work["blackbox.evals"] = d.draws
	}
	return outcome{work: work, answer: res.Series[0].Y}, nil
}

// cells is a ground-truth sweep: per-point mean and σ.
type cells struct{ mean, sd []float64 }

// truth simulates every swept point in full, without reuse, with the
// engine's sample seeds.
func (w *graphCold) truth() (any, error) {
	_, sc, err := script{src: w.src, reg: w.reg}.compile()
	if err != nil {
		return nil, err
	}
	ev, err := sc.ColumnEval("headroom")
	if err != nil {
		return nil, err
	}
	opts := w.opts
	opts.Reuse = false
	eng, err := mc.New(opts)
	if err != nil {
		return nil, err
	}
	decl, _ := sc.Space.Decl("current_week")
	var c cells
	for _, week := range decl.Domain() {
		pr := eng.EvaluatePoint(ev, w.fixed.With("current_week", week))
		c.mean = append(c.mean, pr.Summary.Mean)
		c.sd = append(c.sd, pr.Summary.StdDev)
	}
	return c, nil
}

// check compares every plotted mean with the full simulation, in units
// of the point's σ. A request fails beyond five standard errors of a
// full simulation's mean.
func (w *graphCold) check(ref any, o outcome) verdict {
	return checkMeans(ref.(cells), o.answer.([]float64), w.opts.Samples)
}

func checkMeans(ref cells, got []float64, samples int) verdict {
	if len(got) != len(ref.mean) {
		return verdict{err: math.MaxFloat64, mismatch: true}
	}
	worst := 0.0
	for i, y := range got {
		worst = math.Max(worst, math.Abs(y-ref.mean[i])/ref.sd[i])
	}
	return verdict{err: worst, ok: worst <= 5/math.Sqrt(float64(samples)), mismatch: worst > 0}
}

func (w *graphCold) corrupt(ref any) any {
	c := ref.(cells)
	shifted := cells{mean: append([]float64(nil), c.mean...), sd: c.sd}
	shifted.mean[len(shifted.mean)/2] += shifted.sd[len(shifted.sd)/2]
	return shifted
}
