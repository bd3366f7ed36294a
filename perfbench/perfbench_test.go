package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"jigsaw/internal/blackbox"
	"jigsaw/internal/core"
	"jigsaw/internal/mc"
)

// tinySizes runs every workload in a fraction of a second.
var tinySizes = sizes{
	samples: 100, validation: 16, weekStep: 13, purchaseStep: 26,
	graphWeeks: 6, users: 50, worlds: 100,
	moves: 10, ticks: 3, truthSamples: 200,
	setupReps: 2,
}

func tinyRun(t *testing.T, spec workloadSpec, seed uint64, traced, wrong bool, ledger string) *result {
	t.Helper()
	res, err := execute(config{
		spec: spec, seed: seed, seconds: 0.2, traced: traced, sizes: tinySizes,
		ledger: ledger, wrongTruth: wrong, log: io.Discard,
	})
	if err != nil {
		t.Fatalf("%s: %v", spec.name, err)
	}
	return res
}

// declared reads the metric names BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name+" "+m.Unit)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name+" "+m.Unit)
	}
	return endToEnd, perLayer
}

func reported(res *result) []string {
	var got []string
	for k, m := range res.Metrics {
		got = append(got, k+" "+m.Unit)
	}
	return got
}

func sameSet(a, b []string) bool {
	seen := map[string]int{}
	for _, x := range a {
		seen[x]++
	}
	for _, x := range b {
		seen[x]--
	}
	for _, n := range seen {
		if n != 0 {
			return false
		}
	}
	return true
}

// Every workload reports exactly the declared metrics, with their
// units, passes its checks and repeats its exact work counts in the
// traced run.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, spec := range workloads {
		t.Run(spec.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				res := tinyRun(t, spec, 1, traced, false, "")
				want := endToEnd
				if traced {
					want = perLayer
				}
				if !sameSet(reported(res), want) {
					t.Errorf("traced=%v reports %v, BENCHMARK.json declares %v", traced, reported(res), want)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("traced=%v: correct=%v attempted=%d failed=%d", traced, res.Correct, res.Attempted, res.Failed)
				}
			}
		})
	}
}

// A wrong ground truth must fail requests on every workload, and the
// approximate workloads must also report the mismatch.
func TestWrongTruthIsCaught(t *testing.T) {
	for _, spec := range workloads {
		t.Run(spec.name, func(t *testing.T) {
			res := tinyRun(t, spec, 1, true, true, "")
			if res.Failed == 0 || res.Correct {
				t.Errorf("failed=%d correct=%v with a wrong ground truth", res.Failed, res.Correct)
			}
			switch spec.name {
			case "optimize_fig1", "whatif_slider":
				if res.Metrics["check.mismatch_frac"].Value != 1 || res.Metrics["check.answer_err"].Value == 0 {
					t.Errorf("mismatch_frac=%v answer_err=%v with a wrong ground truth",
						res.Metrics["check.mismatch_frac"].Value, res.Metrics["check.answer_err"].Value)
				}
			}
		})
	}
}

// The seed alone fixes a workload's inputs: the same seed repeats a
// request's work, answer and ground truth exactly, another seed does
// not.
func TestSeedChangesInputs(t *testing.T) {
	fingerprint := func(spec workloadSpec, seed uint64) string {
		w, err := spec.setup(seed, tinySizes, nil)
		if err != nil {
			t.Fatal(err)
		}
		o, err := w.request()
		if err != nil {
			t.Fatal(err)
		}
		ref, err := w.truth()
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%v %#v %#v", o.work, o.answer, ref)
	}
	for _, spec := range workloads {
		a, again, b := fingerprint(spec, 1), fingerprint(spec, 1), fingerprint(spec, 2)
		if a != again {
			t.Errorf("%s: seed 1 gave two different inputs", spec.name)
		}
		if a == b {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs", spec.name)
		}
	}
}

// A later run of the same seed and build must repeat the recorded work
// counts.
func TestLedgerCatchesChangedWork(t *testing.T) {
	spec, _ := findWorkload("optimize_fig1")
	dir := t.TempDir()
	if res := tinyRun(t, spec, 3, false, false, dir); !res.Correct {
		t.Fatal("first run incorrect")
	}
	if res := tinyRun(t, spec, 3, false, false, dir); !res.Correct {
		t.Fatal("second run of the same seed incorrect")
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("ledger files %v, %v", files, err)
	}
	if err := os.WriteFile(files[0], []byte(`{"0":{"mc.points":1}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if res := tinyRun(t, spec, 3, false, false, dir); res.Correct {
		t.Error("a run that disagrees with the ledger was reported correct")
	}
}

func TestGuardFlagsChangedCounts(t *testing.T) {
	var g guard
	if !g.see(outcome{work: map[string]int64{"mc.reused": 3}}) || !g.see(outcome{work: map[string]int64{"mc.reused": 3}}) {
		t.Fatal("repeated counts flagged")
	}
	if g.see(outcome{work: map[string]int64{"mc.reused": 4}}) || g.ok() {
		t.Fatal("changed counts not flagged")
	}
}

// The wrappers expose exactly the capabilities of what they wrap, so
// the program dispatches traced and untraced values the same way.
func TestWrappersKeepCapabilities(t *testing.T) {
	caps := func(b blackbox.Box) [2]bool {
		_, block := b.(blackbox.BlockBox)
		_, stream := b.(blackbox.StreamBox)
		return [2]bool{block, stream}
	}
	tr := newTracer()
	boxes := []blackbox.Box{
		blackbox.NewDemand(), blackbox.NewCapacity(), blackbox.UserUsage{},
		blackbox.Func{FuncName: "f", NArgs: 1},
	}
	for _, b := range boxes {
		w, _ := tr.box(b)
		if caps(w) != caps(b) {
			t.Errorf("%s: wrapper capabilities %v, box %v", b.Name(), caps(w), caps(b))
		}
	}
	evalCaps := func(f mc.PointEval) [2]bool {
		_, pb := f.(mc.PointBinder)
		_, bb := f.(mc.BlockBinder)
		return [2]bool{pb, bb}
	}
	for _, f := range []mc.PointEval{
		mc.MustBindBox(blackbox.NewCapacity(), "a", "b", "c"),
		mc.EvalFunc(nil),
	} {
		if got, want := evalCaps(tr.eval(f)), evalCaps(f); got != want {
			t.Errorf("%T: wrapper capabilities %v, evaluator %v", f, got, want)
		}
	}
	c, lc := tr.class(), core.LinearClass{}
	if c.Name() != lc.Name() || c.Monotone() != lc.Monotone() || c.CanMatchConstants() != lc.CanMatchConstants() {
		t.Error("class wrapper changed the class's properties")
	}
}
