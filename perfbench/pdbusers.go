package main

// pdb_users: one PDB aggregate over a stored table, the query layer's
// columnar executor and the models' stream kernels with the Monte
// Carlo engine idle.

import (
	"math"
	"time"

	"jigsaw/internal/blackbox"
	"jigsaw/internal/pdb"
	"jigsaw/internal/stats"
)

// pdbWeek is the fixed @current_week: per-request cost depends on how
// many users have joined by then, so it must not vary with the seed.
const pdbWeek = 40

type pdbUsers struct {
	plan   pdb.Plan
	params map[string]float64
	opts   pdb.WorldsOptions
	rows   int
	tr     *tracer
	loadMs float64
}

// newPDBUsers loads the seed's users table and plans
// SELECT SUM(UserUsage(@current_week, join_week, base, growth, vol)) FROM users.
func newPDBUsers(seed uint64, sz sizes, tr *tracer) (workload, error) {
	st := splitmix(seed)
	start := time.Now()
	table, err := pdb.NewTable("join_week", "base", "growth", "vol")
	if err != nil {
		return nil, err
	}
	for _, u := range blackbox.GenerateUsers(sz.users, st.next()) {
		if err := table.Append(pdb.Row{
			pdb.Float(u.JoinWeek), pdb.Float(u.BaseCores), pdb.Float(u.GrowthRate), pdb.Float(u.Volatility),
		}); err != nil {
			return nil, err
		}
	}
	db := pdb.NewDB()
	if err := db.CreateTable("users", table); err != nil {
		return nil, err
	}
	var usage blackbox.Box = blackbox.UserUsage{}
	if tr != nil {
		usage, _ = tr.box(usage)
	}
	if err := db.Boxes.Register(usage); err != nil {
		return nil, err
	}
	loadMs := float64(time.Since(start)) / 1e6
	scan, err := db.Scan("users")
	if err != nil {
		return nil, err
	}
	call, err := (pdb.Call{Name: "UserUsage", Args: []pdb.Expr{
		pdb.Param{Name: "current_week"}, pdb.Col{Name: "join_week"},
		pdb.Col{Name: "base"}, pdb.Col{Name: "growth"}, pdb.Col{Name: "vol"},
	}}).Bind(scan.Schema(), db.Env())
	if err != nil {
		return nil, err
	}
	plan, err := pdb.NewGroupPlan(scan, nil, []pdb.AggSpec{{Kind: pdb.AggSum, Arg: call, Name: "total"}})
	if err != nil {
		return nil, err
	}
	return &pdbUsers{
		plan:   plan,
		params: map[string]float64{"current_week": pdbWeek},
		opts:   pdb.WorldsOptions{Worlds: sz.worlds, Workers: workers, MasterSeed: st.next()},
		rows:   sz.users,
		tr:     tr,
		loadMs: loadMs,
	}, nil
}

func (w *pdbUsers) unit() int { return 1 }

func (w *pdbUsers) request() (outcome, error) {
	var before tally
	if w.tr != nil {
		before = w.tr.snapshot()
	}
	start := time.Now()
	dist, err := pdb.RunDistribution(w.plan, w.params, w.opts)
	if err != nil {
		return outcome{}, err
	}
	if w.tr != nil {
		elapsed := time.Since(start)
		w.tr.observeModels(w.tr.snapshot().minus(before))
		w.tr.observe("pdb.run_ms", float64(elapsed)/1e6)
		w.tr.observe("pdb.ns_per_world_row", float64(elapsed)/float64(w.opts.Worlds*w.rows))
	}
	// The model draws are not an exact count here: which blocks take
	// the executor's fresh-stream lane, and so replay their first draw,
	// depends on which worker finishes first (a documented benign race
	// in pdb.runFlags). The answer stays bit-identical.
	return outcome{answer: dist}, nil
}

// truth runs the same query through the reference per-world executor,
// which must produce a bit-identical distribution.
func (w *pdbUsers) truth() (any, error) {
	opts := w.opts
	opts.Mode = pdb.ExecScalar
	return pdb.RunDistribution(w.plan, w.params, opts)
}

func (w *pdbUsers) check(ref any, o outcome) verdict {
	r, got := ref.(*pdb.Distribution), o.answer.(*pdb.Distribution)
	if len(r.Cells) != len(got.Cells) {
		return verdict{err: math.MaxFloat64, mismatch: true}
	}
	identical, worst := true, 0.0
	for i, row := range r.Cells {
		if len(row) != len(got.Cells[i]) {
			return verdict{err: math.MaxFloat64, mismatch: true}
		}
		for j, want := range row {
			have := got.Cells[i][j]
			same := have.N == want.N && bitsEqual(have.Mean, want.Mean) && bitsEqual(have.StdDev, want.StdDev) &&
				bitsEqual(have.Min, want.Min) && bitsEqual(have.Max, want.Max)
			if !same {
				identical = false
				worst = math.Max(worst, math.Abs(have.Mean-want.Mean)/want.StdDev)
			}
		}
	}
	return verdict{err: worst, ok: identical, mismatch: !identical}
}

func bitsEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func (w *pdbUsers) corrupt(ref any) any {
	r := ref.(*pdb.Distribution)
	c := *r
	c.Cells = make([][]stats.Summary, len(r.Cells))
	for i, row := range r.Cells {
		c.Cells[i] = append([]stats.Summary(nil), row...)
	}
	c.Cells[0][0].Mean = math.Nextafter(c.Cells[0][0].Mean, math.Inf(1))
	return &c
}

// finish reports the table load and the in-run speed of the columnar
// executor relative to the scalar one that produced the ground truth.
func (w *pdbUsers) finish(tr *tracer, p50, truthMs float64) {
	tr.observe("pdb.load_ms", w.loadMs)
	tr.observe("pdb.columnar_over_scalar", truthMs/p50)
}
