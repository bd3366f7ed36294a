package main

// Tracing from outside the program: the traced run replaces the values
// the program accepts from callers (registry boxes, the engine's
// mapping class, the session's point evaluator) with wrappers that
// count and time every call, and times the calls it makes into each
// layer's public functions itself. Each wrapper exposes exactly the
// optional capabilities of the value it wraps, so the program's
// capability dispatch, and therefore its work, is unchanged; the
// harness proves that by comparing the exact work counts of traced and
// untraced requests.

import (
	"sync/atomic"
	"time"

	"jigsaw/internal/blackbox"
	"jigsaw/internal/core"
	"jigsaw/internal/mc"
	"jigsaw/internal/param"
	"jigsaw/internal/rng"
)

// meter counts calls into one boundary and the time spent inside them.
// Calls may come from several worker goroutines at once.
type meter struct {
	calls atomic.Int64
	ns    atomic.Int64
}

func (m *meter) done(start time.Time) {
	m.calls.Add(1)
	m.ns.Add(int64(time.Since(start)))
}

// boxMeters is the per-box tally: calls by capability lane, model
// draws across all lanes and time inside the model. Scalar calls are
// cheap enough that two clock reads would double their cost, so only
// one in sampleEvery is timed (sampled, sampledNs) and the lane's time
// is extrapolated; block and stream calls are all timed (ns).
type boxMeters struct {
	scalar, block, stream atomic.Int64
	draws                 atomic.Int64
	ns                    atomic.Int64
	sampled, sampledNs    atomic.Int64
}

const sampleEvery = 16

// clockCost is the time an empty time.Now/time.Since pair reads, which
// each timed scalar call subtracts.
var clockCost = func() int64 {
	ds := make([]float64, 1001)
	for i := range ds {
		start := time.Now()
		ds[i] = float64(time.Since(start))
	}
	return int64(median(ds))
}()

// scalarCall counts one scalar draw and runs eval, timing it when it
// is the sampled one.
func (m *boxMeters) scalarCall(eval func() float64) float64 {
	m.draws.Add(1)
	if m.scalar.Add(1)%sampleEvery != 0 {
		return eval()
	}
	start := time.Now()
	v := eval()
	m.sampledNs.Add(int64(time.Since(start)) - clockCost)
	m.sampled.Add(1)
	return v
}

// modelNs is the time inside the model: the timed block and stream
// calls plus the scalar calls' extrapolated time.
func (m *boxMeters) modelNs() int64 {
	ns := m.ns.Load()
	if n := m.sampled.Load(); n > 0 {
		ns += m.sampledNs.Load() * m.scalar.Load() / n
	}
	return ns
}

// tracedBox wraps a black box; the capability variants below embed it.
type tracedBox struct {
	inner blackbox.Box
	m     *boxMeters
}

func (b *tracedBox) Name() string { return b.inner.Name() }
func (b *tracedBox) Arity() int   { return b.inner.Arity() }

func (b *tracedBox) Eval(args []float64, r *rng.Rand) float64 {
	return b.m.scalarCall(func() float64 { return b.inner.Eval(args, r) })
}

func (b *tracedBox) evalBlock(args, out []float64, seeds []uint64) {
	start := time.Now()
	b.inner.(blackbox.BlockBox).EvalBlock(args, out, seeds)
	b.m.ns.Add(int64(time.Since(start)))
	b.m.block.Add(1)
	b.m.draws.Add(int64(len(seeds)))
}

func (b *tracedBox) evalStream(args, out []float64, rands []rng.Rand, active []bool) {
	start := time.Now()
	b.inner.(blackbox.StreamBox).EvalStream(args, out, rands, active)
	b.m.ns.Add(int64(time.Since(start)))
	b.m.stream.Add(1)
	n := len(rands)
	if active != nil {
		n = 0
		for _, a := range active[:len(rands)] {
			if a {
				n++
			}
		}
	}
	b.m.draws.Add(int64(n))
}

type tracedBlockBox struct{ *tracedBox }

func (b tracedBlockBox) EvalBlock(args, out []float64, seeds []uint64) {
	b.evalBlock(args, out, seeds)
}

type tracedStreamBox struct{ *tracedBox }

func (b tracedStreamBox) EvalStream(args, out []float64, rands []rng.Rand, active []bool) {
	b.evalStream(args, out, rands, active)
}

type tracedBlockStreamBox struct{ *tracedBox }

func (b tracedBlockStreamBox) EvalBlock(args, out []float64, seeds []uint64) {
	b.evalBlock(args, out, seeds)
}

func (b tracedBlockStreamBox) EvalStream(args, out []float64, rands []rng.Rand, active []bool) {
	b.evalStream(args, out, rands, active)
}

// wrapBox returns a wrapper of b with exactly b's block and stream
// capabilities, tallying into m.
func wrapBox(b blackbox.Box, m *boxMeters) blackbox.Box {
	tb := &tracedBox{inner: b, m: m}
	_, isBlock := b.(blackbox.BlockBox)
	_, isStream := b.(blackbox.StreamBox)
	switch {
	case isBlock && isStream:
		return tracedBlockStreamBox{tb}
	case isBlock:
		return tracedBlockBox{tb}
	case isStream:
		return tracedStreamBox{tb}
	default:
		return tb
	}
}

// tracedClass wraps the engine's mapping class and times mapping
// discovery (Find), the per-candidate cost of every index probe.
type tracedClass struct {
	inner core.MappingClass
	find  *meter
}

func (c tracedClass) Name() string            { return c.inner.Name() }
func (c tracedClass) Monotone() bool          { return c.inner.Monotone() }
func (c tracedClass) CanMatchConstants() bool { return c.inner.CanMatchConstants() }

func (c tracedClass) Find(from, to core.Fingerprint, tol float64) (core.Mapping, bool) {
	start := time.Now()
	m, ok := c.inner.Find(from, to, tol)
	c.find.done(start)
	return m, ok
}

// tracedEval wraps a point evaluator; the variants below add the
// PointBinder and BlockBinder capabilities when the inner value has
// them. It tallies like a box: per-sample methods are the scalar lane,
// EvalBlockBound the block lane.
type tracedEval struct {
	inner mc.PointEval
	m     *boxMeters
}

func (e *tracedEval) EvalPoint(p param.Point, r *rng.Rand) float64 {
	return e.m.scalarCall(func() float64 { return e.inner.EvalPoint(p, r) })
}

type tracedBinder struct{ *tracedEval }

func (e tracedBinder) BindPoint(p param.Point, buf []float64) []float64 {
	return e.inner.(mc.PointBinder).BindPoint(p, buf)
}

func (e tracedBinder) EvalBound(args []float64, r *rng.Rand) float64 {
	return e.m.scalarCall(func() float64 { return e.inner.(mc.PointBinder).EvalBound(args, r) })
}

type tracedBlockBinder struct{ tracedBinder }

func (e tracedBlockBinder) EvalBlockBound(args, out []float64, seeds []uint64) {
	start := time.Now()
	e.inner.(mc.BlockBinder).EvalBlockBound(args, out, seeds)
	e.m.ns.Add(int64(time.Since(start)))
	e.m.block.Add(1)
	e.m.draws.Add(int64(len(seeds)))
}

// tracer owns the wrappers' tallies for one traced instance. Workloads
// snapshot it around each request and record per-request values.
type tracer struct {
	boxes []*boxMeters
	find  meter
	obs   map[string][]float64
}

func newTracer() *tracer { return &tracer{obs: map[string][]float64{}} }

// box wraps b for registration and returns the wrapper with its tally.
func (t *tracer) box(b blackbox.Box) (blackbox.Box, *boxMeters) {
	m := &boxMeters{}
	t.boxes = append(t.boxes, m)
	return wrapBox(b, m), m
}

// eval wraps a point evaluator with exactly its binder capabilities.
func (t *tracer) eval(f mc.PointEval) mc.PointEval {
	m := &boxMeters{}
	t.boxes = append(t.boxes, m)
	te := &tracedEval{inner: f, m: m}
	if _, ok := f.(mc.BlockBinder); ok {
		return tracedBlockBinder{tracedBinder{te}}
	}
	if _, ok := f.(mc.PointBinder); ok {
		return tracedBinder{te}
	}
	return te
}

// class wraps the engine's default mapping class.
func (t *tracer) class() core.MappingClass {
	return tracedClass{inner: core.LinearClass{}, find: &t.find}
}

// observe records one per-request value of a per-layer metric.
func (t *tracer) observe(name string, v float64) {
	t.obs[name] = append(t.obs[name], v)
}

// tally is a snapshot of every wrapper counter.
type tally struct {
	scalar, block, stream, draws, modelNs int64
	findCalls, findNs                     int64
}

func (t *tracer) snapshot() tally {
	var s tally
	for _, m := range t.boxes {
		s.scalar += m.scalar.Load()
		s.block += m.block.Load()
		s.stream += m.stream.Load()
		s.draws += m.draws.Load()
		s.modelNs += m.modelNs()
	}
	s.findCalls, s.findNs = t.find.calls.Load(), t.find.ns.Load()
	return s
}

func (s tally) minus(o tally) tally {
	return tally{
		scalar: s.scalar - o.scalar, block: s.block - o.block, stream: s.stream - o.stream,
		draws: s.draws - o.draws, modelNs: s.modelNs - o.modelNs,
		findCalls: s.findCalls - o.findCalls, findNs: s.findNs - o.findNs,
	}
}

// observeModels records the black-box and mapping-class figures of one
// request from the tally delta d.
func (t *tracer) observeModels(d tally) {
	t.observe("blackbox.evals", float64(d.draws))
	t.observe("blackbox.eval_ms", float64(d.modelNs)/1e6)
	t.observe("blackbox.lane_block", float64(d.block))
	t.observe("blackbox.lane_stream", float64(d.stream))
	t.observe("blackbox.lane_scalar", float64(d.scalar))
	t.observe("core.find_calls", float64(d.findCalls))
	t.observe("core.find_ms", float64(d.findNs)/1e6)
}
