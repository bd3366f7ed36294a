package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"jigsaw/internal/rng"
)

// sizes fixes every input size of every workload. fullSizes is the
// benchmark; the self-tests run tinySizes.
type sizes struct {
	samples      int     // Monte Carlo samples per point
	validation   int     // optimize_fig1 ValidationSamples
	weekStep     int     // optimize_fig1 @current_week STEP BY
	purchaseStep int     // optimize_fig1 @purchase1/@purchase2 STEP BY
	graphWeeks   int     // graph_cold sweeps @current_week over 0..graphWeeks-1
	users        int     // pdb_users table rows
	worlds       int     // pdb_users possible worlds
	moves        int     // whatif_slider moves per session
	ticks        int     // whatif_slider ticks per move
	truthSamples int     // whatif_slider ground-truth samples per focus point
	setupReps    int     // fewest set-up repetitions behind setup_s
	setupSeconds float64 // least wall time of the set-ups together
}

var fullSizes = sizes{
	samples: 1000, validation: 64, weekStep: 2, purchaseStep: 8,
	graphWeeks: 53, users: 2000, worlds: 1000,
	moves: 30, ticks: 20, truthSamples: 1000,
	setupReps: 3, setupSeconds: 1.5,
}

// workers is the engine, PDB and session pool size.
const workers = 2

// minRequests is the fewest requests an untraced run measures, however
// slow they are, so that at least ten lie beyond latency_p90_ms.
const minRequests = 100

// outcome is what one request returns to the harness.
type outcome struct {
	// slot is the request's position within its unit of work (the move
	// index of a what-if session; 0 for single-request units). Requests
	// in the same slot must repeat each other's work exactly.
	slot int
	// work holds the request's exact work counts.
	work map[string]int64
	// answer is checked against the ground truth after the timed loop.
	answer any
}

// workload is one instance of a benchmark shape, built by its spec's
// setup for one seed.
type workload interface {
	// request runs one operation.
	request() (outcome, error)
	// unit is the number of requests in one unit of work; a run always
	// measures whole units.
	unit() int
	// truth computes the ground truth; it is never timed.
	truth() (any, error)
	// check compares an answer with the ground truth.
	check(ref any, o outcome) verdict
	// corrupt returns a deliberately wrong ground truth (self-tests).
	corrupt(ref any) any
}

// verdict is one answer's comparison with the ground truth.
type verdict struct {
	// err is the workload's answer error (answer_err).
	err float64
	// ok is false when the request fails the check.
	ok bool
	// mismatch reports an answer that differs from the ground truth,
	// whether or not that fails the request.
	mismatch bool
}

// meanBound is implemented by workloads whose answers are also judged
// by their mean error over each unit of work.
type meanBound interface {
	// maxMeanErr is the largest mean answer error a unit may carry.
	maxMeanErr() float64
}

// failUnits fails every request of a unit whose mean answer error
// passes bound. A phase always holds whole units.
func failUnits(vs []verdict, unit int, bound float64) {
	for u := 0; u+unit <= len(vs); u += unit {
		mean := 0.0
		for _, v := range vs[u : u+unit] {
			mean += v.err / float64(unit)
		}
		if mean > bound {
			for i := u; i < u+unit; i++ {
				vs[i].ok = false
			}
		}
	}
}

// finisher is implemented by workloads that derive per-layer metrics
// once the traced phase is over. p50 is the untraced median latency and
// truthMs the time the ground truth took, both in milliseconds.
type finisher interface {
	finish(tr *tracer, p50, truthMs float64)
}

// workloadSpec names a workload and builds its instances. setup builds
// the seed's one-off inputs; with a non-nil tracer the instance is
// wired to the trace wrappers and records per-request observations.
type workloadSpec struct {
	name  string
	setup func(seed uint64, sz sizes, tr *tracer) (workload, error)
}

var workloads = []workloadSpec{
	{"optimize_fig1", newOptimizeFig1},
	{"graph_cold", newGraphCold},
	{"pdb_users", newPDBUsers},
	{"whatif_slider", newWhatifSlider},
}

// config is one benchmark run.
type config struct {
	spec    workloadSpec
	seed    uint64
	seconds float64
	traced  bool
	sizes   sizes
	// ledger, when set, is a directory where each run records its exact
	// work counts so a later run of the same seed and build can be
	// compared with it.
	ledger string
	// wrongTruth replaces the ground truth with a corrupted one.
	wrongTruth bool
	log        io.Writer
}

// phase is one measured closed loop.
type phase struct {
	latMs []float64
	// refLat is each request's latency in ref units: its wall time over
	// the kernel time around it (see aroundMs and refKernel).
	refLat []float64
	// refMs holds the reference kernel's times.
	refMs []float64
	outs  []outcome
	// good is false for requests that errored or broke the determinism
	// guard.
	good    []bool
	wall    time.Duration
	cpu     time.Duration
	alloc   uint64
	numGC   uint32
	peakRSS float64
}

// execute performs one run and assembles its result.
func execute(cfg config) (*result, error) {
	g := guard{}
	calib := []float64{calibrate()}

	// Set-up: fresh instances, each with its warm-up unit; setup_s is
	// the median, in seconds at the reference speed (see refNominalMs).
	// A cheap set-up repeats beyond setupReps until setupSeconds have
	// passed, so that its median rests on enough samples to be steady.
	// The reference kernel is timed before every set-up and twice after
	// the last. The last instance is the one measured.
	var w workload
	var wallSetups, refMs []float64
	for spent := 0.0; len(wallSetups) < cfg.sizes.setupReps || spent < cfg.sizes.setupSeconds; {
		refMs = append(refMs, refKernel())
		start := time.Now()
		inst, err := cfg.spec.setup(cfg.seed, cfg.sizes, nil)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", cfg.spec.name, err)
		}
		if err := warm(inst, &g); err != nil {
			return nil, err
		}
		secs := time.Since(start).Seconds()
		wallSetups = append(wallSetups, secs)
		spent += secs
		w = inst
	}
	refMs = append(refMs, refKernel(), refKernel())
	setups := make([]float64, len(wallSetups))
	for i, secs := range wallSetups {
		setups[i] = secs * refNominalMs / aroundMs(refMs, i)
	}

	dur := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.traced {
		dur /= 2
	}
	least := minRequests
	if cfg.traced {
		least = 0
	}
	plain, err := measure(w, dur, least, &g)
	if err != nil {
		return nil, err
	}

	// The ground truth is computed after the untraced loop, so it is
	// neither timed nor part of the peak RSS.
	truthStart := time.Now()
	ref, err := w.truth()
	if err != nil {
		return nil, fmt.Errorf("%s ground truth: %w", cfg.spec.name, err)
	}
	truthMs := float64(time.Since(truthStart)) / 1e6
	if cfg.wrongTruth {
		ref = w.corrupt(ref)
	}

	var tr *tracer
	var traced *phase
	if cfg.traced {
		tr = newTracer()
		tw, err := cfg.spec.setup(cfg.seed, cfg.sizes, tr)
		if err != nil {
			return nil, fmt.Errorf("%s traced setup: %w", cfg.spec.name, err)
		}
		tg := guard{}
		if err := warm(tw, &tg); err != nil {
			return nil, err
		}
		tr.obs = map[string][]float64{}
		if traced, err = measure(tw, dur, 0, &tg); err != nil {
			return nil, err
		}
		// The wrappers must not change what the program does: every
		// count both runs observe must agree.
		g.compare(&tg)
		if f, ok := tw.(finisher); ok {
			f.finish(tr, median(plain.latMs), truthMs)
		}
		g.counts = tg.counts
	}

	attempted, failed, mismatched, answerErr := 0, 0, 0, 0.0
	for _, p := range []*phase{plain, traced} {
		if p == nil {
			continue
		}
		vs := make([]verdict, len(p.outs))
		for i, o := range p.outs {
			if p.good[i] {
				vs[i] = w.check(ref, o)
			}
		}
		if b, ok := w.(meanBound); ok {
			failUnits(vs, w.unit(), b.maxMeanErr())
		}
		for i, v := range vs {
			attempted++
			if !p.good[i] {
				failed++
				continue
			}
			answerErr = math.Max(answerErr, v.err)
			if !v.ok {
				failed++
			}
			if v.mismatch {
				mismatched++
			}
		}
	}
	if cfg.ledger != "" {
		if err := g.ledger(cfg); err != nil {
			return nil, err
		}
	}
	res := &result{
		Correct:   failed == 0 && g.ok(),
		Attempted: attempted,
		Failed:    failed,
		Metrics:   map[string]metric{},
	}
	for _, m := range g.problems {
		fmt.Fprintln(cfg.log, "perfbench: determinism:", m)
	}

	p50, p90 := percentile(plain.latMs, 0.5), percentile(plain.latMs, 0.9)
	n := float64(len(plain.latMs))
	// Throughput counts request time only, leaving out the reference
	// kernel's share of the loop.
	rps := 1000 * n / sum(plain.latMs)
	e2e := map[string]metric{
		"latency_p50_ref":     {percentile(plain.refLat, 0.5), "ref"},
		"latency_p90_ref":     {percentile(plain.refLat, 0.9), "ref"},
		"throughput_per_kref": {1000 * n / sum(plain.refLat), "1/kref"},
		"alloc_mb_per_req":    {float64(plain.alloc) / n / 1e6, "MB"},
		"setup_s":             {median(setups), "s"},
	}
	failedFrac := float64(failed) / float64(attempted)
	mismatchFrac := float64(mismatched) / float64(attempted)
	calib = append(calib, calibrate())
	fmt.Fprintf(cfg.log, "perfbench %s seed=%d requests=%d beyond_p90=%d setup_reps=%d ref_kernel_ms=%.4f rng_fill_ns=%.2f/%.2f\n",
		cfg.spec.name, cfg.seed, len(plain.latMs), beyond(plain.latMs, p90), len(setups),
		median(plain.refMs), calib[0], calib[1])
	fmt.Fprintf(cfg.log, "  latency_p50_ms=%.3f latency_p90_ms=%.3f throughput_rps=%.3f setup_wall_s=%.4f peak_rss_mb=%.1f failed_frac=%g answer_err=%.4g mismatch_frac=%g\n",
		p50, p90, rps, median(wallSetups), plain.peakRSS, failedFrac, answerErr, mismatchFrac)
	fmt.Fprintf(cfg.log, "  latency_p50_ref=%.3f latency_p90_ref=%.3f throughput_per_kref=%.4f alloc_mb_per_req=%.3f setup_s=%.4f\n",
		e2e["latency_p50_ref"].Value, e2e["latency_p90_ref"].Value, e2e["throughput_per_kref"].Value,
		e2e["alloc_mb_per_req"].Value, e2e["setup_s"].Value)

	if !cfg.traced {
		res.Metrics = e2e
		return res, nil
	}

	tr.observe("rng.fill_ns_per_sample", median(calib))
	tr.observe("check.answer_err", answerErr)
	tr.observe("check.mismatch_frac", mismatchFrac)
	tr.observe("trace.overhead_ratio", median(traced.refLat)/median(plain.refLat))
	tr.observe("wall.latency_p50_ms", p50)
	tr.observe("wall.latency_p90_ms", p90)
	tr.observe("wall.throughput_rps", rps)
	tr.observe("wall.ref_kernel_ms", median(plain.refMs))
	tr.observe("wall.setup_s", median(wallSetups))
	tr.observe("pool.cpu_util", plain.cpu.Seconds()/(plain.wall.Seconds()*workers))
	tr.observe("runtime.gc_per_req", float64(plain.numGC)/n)
	tr.observe("runtime.peak_rss_mb", plain.peakRSS)
	for _, lm := range layerMetrics {
		v := 0.0
		if obs := tr.obs[lm.name]; len(obs) > 0 {
			v = median(obs)
		}
		res.Metrics[lm.name] = metric{v, lm.unit}
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(cfg.log, "  %s=%.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	return res, nil
}

// layerMetrics lists every per-layer metric a traced run reports, in
// BENCHMARK.json order. A layer a workload leaves idle reports 0.
var layerMetrics = []struct{ name, unit string }{
	{"sqlparse.parse_us", "us"},
	{"exec.compile_us", "us"},
	{"exec.ns_per_sample", "ns"},
	{"optimize.run_ms", "ms"},
	{"mc.self_ms", "ms"},
	{"mc.points", "count"},
	{"mc.full_sims", "count"},
	{"mc.reused", "count"},
	{"mc.reuse_ratio", "ratio"},
	{"core.queries", "count"},
	{"core.hits", "count"},
	{"core.bases", "count"},
	{"core.candidates_per_query", "ratio"},
	{"core.find_calls", "count"},
	{"core.find_ms", "ms"},
	{"blackbox.evals", "count"},
	{"blackbox.eval_ms", "ms"},
	{"blackbox.lane_block", "count"},
	{"blackbox.lane_stream", "count"},
	{"blackbox.lane_scalar", "count"},
	{"pdb.run_ms", "ms"},
	{"pdb.ns_per_world_row", "ns"},
	{"pdb.columnar_over_scalar", "ratio"},
	{"pdb.load_ms", "ms"},
	{"interactive.focus_us", "us"},
	{"interactive.tick_us", "us"},
	{"interactive.estimate_us", "us"},
	{"interactive.evals_per_move", "count"},
	{"interactive.rebinds", "count"},
	{"interactive.bases", "count"},
	{"interactive.tick_age_ratio", "ratio"},
	{"pool.cpu_util", "ratio"},
	{"rng.fill_ns_per_sample", "ns"},
	{"runtime.gc_per_req", "count"},
	{"runtime.peak_rss_mb", "MB"},
	{"trace.overhead_ratio", "ratio"},
	{"wall.latency_p50_ms", "ms"},
	{"wall.latency_p90_ms", "ms"},
	{"wall.throughput_rps", "1/s"},
	{"wall.ref_kernel_ms", "ms"},
	{"wall.setup_s", "s"},
	{"check.answer_err", "ratio"},
	{"check.mismatch_frac", "ratio"},
}

// warm runs one whole unit of untimed requests, recording their work
// counts as the reference later requests must repeat.
func warm(w workload, g *guard) error {
	for i := 0; i < w.unit(); i++ {
		o, err := w.request()
		if err != nil {
			return fmt.Errorf("warm-up request: %w", err)
		}
		if !g.see(o) {
			g.note(fmt.Sprintf("warm-up request %d did not repeat the work of an earlier set-up", i))
		}
	}
	return nil
}

// measure runs the closed loop for d and at least least requests,
// finishing the unit in progress.
func measure(w workload, d time.Duration, least int, g *guard) (*phase, error) {
	p := &phase{}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	start := time.Now()
	// before[i] is the index of the last kernel time before request i.
	var before []int
	var sinceRef float64
	for i := 0; time.Since(start) < d || i < least || i%w.unit() != 0; i++ {
		if i == 0 || sinceRef >= refEveryMs {
			p.refMs = append(p.refMs, refKernel())
			sinceRef = 0
		}
		before = append(before, len(p.refMs)-1)
		t0 := time.Now()
		o, err := w.request()
		lat := float64(time.Since(t0)) / 1e6
		sinceRef += lat
		p.latMs = append(p.latMs, lat)
		// A failed request is counted, not fatal. Only the answer is
		// kept, so the live heap, and with it the collector's work,
		// does not grow with the length of the run.
		p.good = append(p.good, err == nil && g.see(o))
		p.outs = append(p.outs, outcome{slot: o.slot, answer: o.answer})
	}
	p.wall = time.Since(start)
	p.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	p.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	p.numGC = ms1.NumGC - ms0.NumGC
	p.peakRSS = peakRSSMB()
	if len(p.latMs) == 0 {
		return nil, errors.New("no request completed")
	}
	p.refMs = append(p.refMs, refKernel(), refKernel())
	for i, lat := range p.latMs {
		p.refLat = append(p.refLat, lat/aroundMs(p.refMs, before[i]))
	}
	return p, nil
}

// guard is the determinism check: every request in a slot must repeat
// the exact work counts of the first request seen in that slot.
type guard struct {
	counts   map[int]map[string]int64
	problems []string
}

// see records o's counts, or reports whether they repeat the slot's
// reference.
func (g *guard) see(o outcome) bool {
	if g.counts == nil {
		g.counts = map[int]map[string]int64{}
	}
	ref, ok := g.counts[o.slot]
	if !ok {
		g.counts[o.slot] = o.work
		return true
	}
	if !maps.Equal(ref, o.work) {
		g.note(fmt.Sprintf("slot %d: work %v, first request did %v", o.slot, o.work, ref))
		return false
	}
	return true
}

func (g *guard) note(msg string) {
	if len(g.problems) < 5 {
		g.problems = append(g.problems, msg)
	}
}

func (g *guard) ok() bool { return len(g.problems) == 0 }

// compare checks the counts both guards recorded; keys only one side
// observes (the wrappers' tallies) are skipped.
func (g *guard) compare(t *guard) {
	for slot, ref := range g.counts {
		other := t.counts[slot]
		for k, v := range ref {
			if ov, ok := other[k]; ok && ov != v {
				g.note(fmt.Sprintf("slot %d: %s traced %d untraced %d", slot, k, ov, v))
			}
		}
	}
	for _, p := range t.problems {
		g.note(p)
	}
}

// ledger compares this run's counts with those an earlier run of the
// same workload, seed, trace mode and build recorded, then records
// them.
func (g *guard) ledger(cfg config) error {
	build, err := buildID()
	if err != nil {
		return err
	}
	mode := 0
	if cfg.traced {
		mode = 1
	}
	path := filepath.Join(cfg.ledger, fmt.Sprintf("%s-%s-seed%d-trace%d.json", build, cfg.spec.name, cfg.seed, mode))
	rec := map[string]map[string]int64{}
	for slot, c := range g.counts {
		rec[fmt.Sprint(slot)] = c
	}
	if old, err := os.ReadFile(path); err == nil {
		var prev map[string]map[string]int64
		if err := json.Unmarshal(old, &prev); err != nil {
			return fmt.Errorf("ledger %s: %w", path, err)
		}
		for slot, c := range prev {
			if !maps.Equal(c, rec[slot]) {
				g.note(fmt.Sprintf("slot %s: work %v, an earlier run of this seed did %v", slot, rec[slot], c))
			}
		}
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.ledger, 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// calibrate times a fixed rng.FillNormal kernel over 1M samples, in 16
// slices small enough to leave the peak RSS alone, and returns the
// median ns per sample: a yardstick for the host's speed during the
// run.
func calibrate() float64 {
	const n, reps = 1 << 16, 16
	out := make([]float64, n)
	seeds := make([]uint64, n)
	st := splitmix(0xCA11B)
	for i := range seeds {
		seeds[i] = st.next()
	}
	ns := make([]float64, reps)
	for i := range ns {
		start := time.Now()
		rng.FillNormal(out, 0, 1, seeds)
		ns[i] = float64(time.Since(start)) / n
	}
	return median(ns)
}

// refEveryMs is how much request time may pass before the reference
// kernel is timed again: host speed changes over seconds, and the
// kernel then costs at most a few percent of the loop.
const refEveryMs = 20

// aroundMs is the kernel time around the work that follows refMs[k]:
// the median of the two kernel times up to refMs[k] and the two after
// it. One timing alone carries the kernel's own jitter into the
// work it scales: on a 2-vCPU VM it widened the ref p90 on pdb_users
// to 0.16 of its median across runs, against 0.07 in wall-clock time.
// Times from after the work matter for long requests: when the host
// changes speed, a window of earlier times alone lags behind it, and on
// optimize_fig1 the ref p90 then spread by 0.20 of its median across
// runs.
func aroundMs(refMs []float64, k int) float64 {
	return median(refMs[max(0, k-1):min(len(refMs), k+3)])
}

// refNominalMs is the reference kernel's time on the 2-vCPU VM the
// benchmark was tuned on. setup_s scales each set-up's wall time by
// refNominalMs over the kernel time around it, so it reads
// as seconds on that VM whatever the host's speed at the moment.
const refNominalMs = 0.7

// refSamples sizes the reference kernel to about 0.7 ms on a 2-vCPU
// x86-64 VM. Changing it changes the ref unit.
const refSamples = 1 << 15

var refSink float64

// refKernel is the benchmark's own yardstick: a fixed amount of
// floating-point work shaped like a model draw (a generator step, a log
// and a square root per sample) that shares no code with the program.
// It runs on as many goroutines as the requests' workers, each doing
// the whole amount, and returns its wall time in ms. Dividing a
// request's latency by the kernel time around it cancels the host's
// speed at that moment, which on a shared host swings by a third within
// a minute. A kernel on one goroutine also caught phases in which the
// host runs a lone thread faster (0.4 against 0.63 ms) while requests
// on two workers keep their speed.
func refKernel() float64 {
	start := time.Now()
	var wg sync.WaitGroup
	sinks := make([]float64, workers)
	for g := range sinks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := splitmix(0x5EED + uint64(g))
			acc := 0.0
			for i := 0; i < refSamples; i++ {
				u := (float64(st.next()>>11) + 0.5) / (1 << 53)
				acc += math.Sqrt(-2 * math.Log(u))
			}
			sinks[g] = acc
		}()
	}
	wg.Wait()
	refSink = sum(sinks)
	return float64(time.Since(start)) / 1e6
}
