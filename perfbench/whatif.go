package main

// whatif_slider: the examples/interactivewhatif capacity slider. A
// session is a fixed script of moves; one request is one move. A unit
// is whatifSessions sessions, each with its own master seed.

import (
	"fmt"
	"math"
	"time"

	"jigsaw/internal/blackbox"
	"jigsaw/internal/interactive"
	"jigsaw/internal/mc"
	"jigsaw/internal/param"
)

// whatifWeek is the week the slider session inspects.
const whatifWeek = 30

// whatifSessions is the number of sessions in a whatif_slider unit.
// How much work a session does depends on its master seed: across ten
// runs of one session each, alloc_mb_per_req spread by 0.06 and set
// the latency spread.
const whatifSessions = 4

type whatifSlider struct {
	eval  mc.PointEval
	space *param.Space
	opts  interactive.Options
	// focus is the session script: the slider position of every move.
	focus []param.Point
	// seeds are the unit's session master seeds.
	seeds []uint64
	ticks int
	// truthN is the ground truth's sample count per focus point.
	truthN int
	tr     *tracer

	sess          *interactive.Session
	session, move int
	prev          interactive.Stats
	// tickUs holds the traced tick times by move index.
	tickUs [][]float64
}

// estimate is a move's answer: the progressive estimate at its focus.
type estimate struct {
	mean float64
	n    int
}

func newWhatifSlider(seed uint64, sz sizes, tr *tracer) (workload, error) {
	eval, err := mc.BindBox(blackbox.NewCapacity(), "week", "purchase", "purchase2")
	if err != nil {
		return nil, err
	}
	if tr != nil {
		eval = tr.eval(eval)
	}
	week, err := param.Range("week", 0, 52, 1)
	if err != nil {
		return nil, err
	}
	purchase, err := param.Range("purchase", 0, 52, 4)
	if err != nil {
		return nil, err
	}
	second, err := param.Set("purchase2", 99) // second purchase disabled
	if err != nil {
		return nil, err
	}
	space, err := param.NewSpace(week, purchase, second)
	if err != nil {
		return nil, err
	}

	// The slider sweeps the purchase week up and down its range in
	// steps of 4 with the week fixed, as in the example; the seed picks
	// the sessions' sample seeds. A seed-dependent walk would make the
	// per-move cost depend on the seed, since it sets how many points
	// share a basis pool.
	st := splitmix(seed)
	seeds := make([]uint64, whatifSessions)
	for i := range seeds {
		seeds[i] = st.next()
	}
	focus := make([]param.Point, sz.moves)
	at, step := 0, 4
	for k := range focus {
		focus[k] = param.Point{"week": whatifWeek, "purchase": float64(at), "purchase2": 99}
		if at+step < 0 || at+step > 52 {
			step = -step
		}
		at += step
	}
	return &whatifSlider{
		eval:   eval,
		space:  space,
		opts:   interactive.Options{BatchSize: 10, Workers: workers},
		focus:  focus,
		seeds:  seeds,
		ticks:  sz.ticks,
		truthN: sz.truthSamples,
		tr:     tr,
		tickUs: make([][]float64, sz.moves),
	}, nil
}

func (w *whatifSlider) unit() int { return len(w.seeds) * len(w.focus) }

// request makes the next move of the session script, starting a fresh
// session with the next master seed on the first move.
func (w *whatifSlider) request() (outcome, error) {
	k, slot := w.move, w.session*len(w.focus)+w.move
	if k == 0 {
		opts := w.opts
		opts.MasterSeed = w.seeds[w.session]
		sess, err := interactive.NewSession(w.eval, w.space, opts)
		if err != nil {
			return outcome{}, err
		}
		w.sess, w.prev = sess, interactive.Stats{}
	}
	w.move = (k + 1) % len(w.focus)
	if w.move == 0 {
		w.session = (w.session + 1) % len(w.seeds)
	}
	var before tally
	if w.tr != nil {
		before = w.tr.snapshot()
	}
	p := w.focus[k]
	start := time.Now()
	if err := w.sess.SetFocus(p); err != nil {
		return outcome{}, err
	}
	focused := time.Now()
	for i := 0; i < w.ticks; i++ {
		t0 := time.Now()
		if _, _, err := w.sess.Tick(); err != nil {
			return outcome{}, err
		}
		if w.tr != nil {
			us := float64(time.Since(t0)) / 1e3
			w.tr.observe("interactive.tick_us", us)
			w.tickUs[k] = append(w.tickUs[k], us)
		}
	}
	ticked := time.Now()
	sum, ok := w.sess.Estimate(p)
	if !ok {
		return outcome{}, fmt.Errorf("no estimate at focus %v", p)
	}
	st := w.sess.Stats()
	work := map[string]int64{
		"interactive.evals":   int64(st.Evaluations - w.prev.Evaluations),
		"interactive.rebinds": int64(st.Rebinds - w.prev.Rebinds),
		"interactive.bases":   int64(st.Bases - w.prev.Bases),
	}
	w.prev = st
	if w.tr != nil {
		w.tr.observe("interactive.focus_us", float64(focused.Sub(start))/1e3)
		w.tr.observe("interactive.estimate_us", float64(time.Since(ticked))/1e3)
		d := w.tr.snapshot().minus(before)
		w.tr.observeModels(d)
		work["blackbox.evals"] = d.draws
		if w.move == 0 {
			moves := float64(len(w.focus))
			w.tr.observe("interactive.evals_per_move", float64(st.Evaluations)/moves)
			w.tr.observe("interactive.rebinds", float64(st.Rebinds))
			w.tr.observe("interactive.bases", float64(st.Bases))
		}
	}
	return outcome{slot: slot, work: work, answer: estimate{mean: sum.Mean, n: sum.N}}, nil
}

// moments is a ground-truth point estimate.
type moments struct {
	mean, sd float64
	n        int
}

// truth simulates every focus point in full with the engine, without
// reuse.
func (w *whatifSlider) truth() (any, error) {
	eng, err := mc.New(mc.Options{Samples: w.truthN, Workers: workers, MasterSeed: w.seeds[0]})
	if err != nil {
		return nil, err
	}
	ref := map[string]moments{}
	for _, p := range w.focus {
		if _, done := ref[p.Key()]; done {
			continue
		}
		s := eng.EvaluatePoint(w.eval, p).Summary
		ref[p.Key()] = moments{mean: s.Mean, sd: s.StdDev, n: s.N}
	}
	return ref, nil
}

// maxSigmaErr is the largest |Δmean|/σ a move's estimate may carry.
// Healthy moves reached at most 0.40σ over twenty 15 s runs.
const maxSigmaErr = 1

// check compares the estimate with the full simulation in units of σ.
// A move fails without a finite estimate or beyond maxSigmaErr. The
// estimate is an approximation, so a difference beyond five standard
// errors of the difference between the two sample means is reported
// as a mismatch, not a failure.
func (w *whatifSlider) check(ref any, o outcome) verdict {
	got := o.answer.(estimate)
	r, ok := ref.(map[string]moments)[w.focus[o.slot%len(w.focus)].Key()]
	if !ok || got.n == 0 || math.IsNaN(got.mean) || math.IsInf(got.mean, 0) {
		return verdict{err: math.MaxFloat64, mismatch: true}
	}
	e := math.Abs(got.mean-r.mean) / r.sd
	tol := 5 * math.Sqrt(1/float64(got.n)+1/float64(r.n))
	return verdict{err: e, ok: e <= maxSigmaErr, mismatch: e > tol}
}

func (w *whatifSlider) corrupt(ref any) any {
	shifted := map[string]moments{}
	for k, m := range ref.(map[string]moments) {
		m.mean += 10 * m.sd
		shifted[k] = m
	}
	return shifted
}

// finish derives the session-age ratio: the median tick in the last
// tenth of the session's moves over the median in the first tenth.
func (w *whatifSlider) finish(tr *tracer, _, _ float64) {
	tenth := len(w.tickUs) / 10
	if tenth == 0 {
		tenth = 1
	}
	var first, last []float64
	for k, ts := range w.tickUs {
		switch {
		case k < tenth:
			first = append(first, ts...)
		case k >= len(w.tickUs)-tenth:
			last = append(last, ts...)
		}
	}
	if len(first) > 0 && len(last) > 0 {
		tr.observe("interactive.tick_age_ratio", median(last)/median(first))
	}
}
