package pdb

import (
	"reflect"
	"strings"
	"testing"

	"jigsaw/internal/blackbox"
)

// The columnar executor's contract is bit-identity: for every
// operator, block size and worker count, RunDistribution under
// ExecColumnar must produce exactly the Distribution the per-world
// reference interpreter produces — cells (including quantiles and
// histograms), key rows, schema, everything. These tests pin that
// across a query zoo covering every built-in operator and the
// interesting randomness disciplines (fresh-lane kernel dispatch,
// stream kernels, branch-masked draws, world-varying selections).

var columnarBlockSizes = []int{1, 7, 256, 1000}
var columnarWorkers = []int{1, 4}

// columnarDB builds the shared fixture: purchases/regions tables plus
// the full model registry.
func columnarDB(t *testing.T) *DB {
	t.Helper()
	db := fixtureDB(t)
	db.Boxes.MustRegister(blackbox.NewOverload())
	db.Boxes.MustRegister(blackbox.UserUsage{})
	regions := MustNewTable("name", "capacity_base")
	regions.MustAppend(Row{Str("east"), Float(100)})
	regions.MustAppend(Row{Str("west"), Float(200)})
	if err := db.CreateTable("regions", regions); err != nil {
		t.Fatal(err)
	}
	signs := MustNewTable("sign", "tag")
	signs.MustAppend(Row{Float(1), Str("pos")})
	signs.MustAppend(Row{Float(-1), Str("neg")})
	if err := db.CreateTable("signs", signs); err != nil {
		t.Fatal(err)
	}
	return db
}

// mustBindX binds an expression, failing the test on error.
func mustBindX(t *testing.T, e Expr, s Schema, env *Env) BoundExpr {
	t.Helper()
	b, err := e.Bind(s, env)
	if err != nil {
		t.Fatalf("bind %s: %v", e, err)
	}
	return b
}

// assertBitIdentical runs plan under both executors for every block
// size × worker grid point and requires deeply equal Distributions
// (or identical errors).
func assertBitIdentical(t *testing.T, plan Plan, params map[string]float64, worlds int) {
	t.Helper()
	for _, bw := range columnarBlockSizes {
		for _, workers := range columnarWorkers {
			opts := WorldsOptions{
				Worlds: worlds, MasterSeed: 0x1234, KeepSamples: true, HistBins: 8,
				blockWorlds: bw, Workers: workers,
			}
			sOpts := opts
			sOpts.Mode = ExecScalar
			want, wantErr := RunDistribution(plan, params, sOpts)
			cOpts := opts
			cOpts.Mode = ExecColumnar
			got, gotErr := RunDistribution(plan, params, cOpts)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("bw=%d workers=%d: scalar err %v, columnar err %v", bw, workers, wantErr, gotErr)
			}
			if wantErr != nil {
				continue
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("bw=%d workers=%d: columnar Distribution diverges from scalar", bw, workers)
			}
			// Worker count must not affect bits at all.
			if workers != 1 {
				cOpts.Workers = 1
				got1, err := RunDistribution(plan, params, cOpts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, got1) {
					t.Fatalf("bw=%d: columnar result depends on worker count", bw)
				}
			}
		}
	}
}

// vgExtendPlan builds Extend(base, vg=DemandModel(@week, 52)) over the
// given base plan.
func vgExtendPlan(t *testing.T, db *DB, base Plan, name string) *ExtendPlan {
	t.Helper()
	bound := mustBindX(t, Call{"DemandModel", []Expr{Param{"week"}, Lit{Float(52)}}}, base.Schema(), db.Env())
	ext, err := NewExtendPlan(base, []NamedBound{{Name: name, Expr: bound}})
	if err != nil {
		t.Fatal(err)
	}
	return ext
}

func TestColumnarSingleVG(t *testing.T) {
	// The fresh-lane case: one VG draw per world dispatches to the
	// BlockBox kernel (bulk FillNormal) with no stream materialization.
	db := columnarDB(t)
	plan := vgExtendPlan(t, db, ValuesPlan{}, "demand")
	assertBitIdentical(t, plan, map[string]float64{"week": 20}, 300)
}

func TestColumnarMultiVGWithCase(t *testing.T) {
	// Two draws per world: the fresh-lane kernel result must be
	// replayed into live streams before the second draw, and the CASE
	// must combine both columns.
	db := columnarDB(t)
	ext1 := vgExtendPlan(t, db, ValuesPlan{}, "demand")
	capacity := mustBindX(t,
		Call{"CapacityModel", []Expr{Param{"week"}, Lit{Float(8)}, Lit{Float(24)}}},
		ext1.Schema(), db.Env())
	ext2, err := NewExtendPlan(ext1, []NamedBound{{Name: "capacity", Expr: capacity}})
	if err != nil {
		t.Fatal(err)
	}
	over := mustBindX(t,
		Case{When: BinOp{"<", Col{"capacity"}, Col{"demand"}}, Then: Lit{Float(1)}, Else: Lit{Float(0)}},
		ext2.Schema(), db.Env())
	ext3, err := NewExtendPlan(ext2, []NamedBound{{Name: "overload", Expr: over}})
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, ext3, map[string]float64{"week": 30}, 300)
}

func TestColumnarGroupedVGWithStringKeys(t *testing.T) {
	// Data-dependent draws (one per row per world), string group keys
	// (KeyRows must match), and every aggregate kind at once.
	db := columnarDB(t)
	scan, _ := db.Scan("purchases")
	noisy := mustBindX(t, BinOp{"*", Col{"volume"},
		Call{"DemandModel", []Expr{Col{"week"}, Lit{Float(99)}}}}, scan.Schema(), db.Env())
	region := mustBindX(t, Col{"region"}, scan.Schema(), db.Env())
	week := mustBindX(t, Col{"week"}, scan.Schema(), db.Env())
	plan, err := NewGroupPlan(scan,
		[]NamedBound{{Name: "region", Expr: region}},
		[]AggSpec{
			{Kind: AggSum, Arg: noisy, Name: "total"},
			{Kind: AggCount, Arg: nil, Name: "n"},
			{Kind: AggAvg, Arg: noisy, Name: "avg"},
			{Kind: AggMin, Arg: week, Name: "wmin"},
			{Kind: AggMax, Arg: week, Name: "wmax"},
		})
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, plan, nil, 300)
}

// signSelectPlan builds the world-varying selection with stable
// cardinality: two rows carrying signs ±1 over one shared uncertain
// column would double-draw, so each row draws its own vg and the
// predicate sign·(vg−week) > 0 keeps exactly one row per world almost
// surely — different physical rows in different worlds, which
// exercises per-world positional compaction.
func signSelectPlan(t *testing.T, db *DB) Plan {
	t.Helper()
	scan, _ := db.Scan("signs")
	ext := vgExtendPlan(t, db, scan, "vg")
	pred := mustBindX(t, BinOp{">",
		BinOp{"*", Col{"sign"}, BinOp{"-", Col{"vg"}, Param{"week"}}},
		Lit{Float(0)}}, ext.Schema(), db.Env())
	return &SelectPlan{Child: ext, Pred: pred, Desc: "sign*(vg-week) > 0"}
}

func TestColumnarWorldVaryingSelect(t *testing.T) {
	db := columnarDB(t)
	plan := signSelectPlan(t, db)
	// Cardinality is 1 in every world unless two independent draws
	// land on opposite sides in a correlated way — with one draw per
	// row the counts can vary; both executors must then agree on the
	// error too, which assertBitIdentical checks.
	assertBitIdentical(t, plan, map[string]float64{"week": 20}, 250)
}

func TestColumnarMaskedAggregate(t *testing.T) {
	// A world-varying selection under a global aggregate: per-world
	// masks flow into the fold, and the output is always one row.
	db := columnarDB(t)
	scan, _ := db.Scan("signs")
	ext := vgExtendPlan(t, db, scan, "vg")
	pred := mustBindX(t, BinOp{">", Col{"vg"}, Param{"week"}}, ext.Schema(), db.Env())
	sel := &SelectPlan{Child: ext, Pred: pred, Desc: "vg > week"}
	arg := mustBindX(t, Col{"vg"}, sel.Schema(), db.Env())
	plan, err := NewGroupPlan(sel, nil, []AggSpec{
		{Kind: AggSum, Arg: arg, Name: "total"},
		{Kind: AggCount, Arg: nil, Name: "n"},
	})
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, plan, map[string]float64{"week": 20}, 300)
}

func TestColumnarMaskedKeyedGroup(t *testing.T) {
	// Masks + group keys force the per-world grouping fallback; group
	// counts usually differ across worlds, so this mostly pins error
	// parity, with agreement required whenever counts align.
	db := columnarDB(t)
	scan, _ := db.Scan("signs")
	ext := vgExtendPlan(t, db, scan, "vg")
	pred := mustBindX(t, BinOp{">", Col{"vg"}, Lit{Float(-1e9)}}, ext.Schema(), db.Env())
	sel := &SelectPlan{Child: ext, Pred: pred, Desc: "always"}
	tag := mustBindX(t, Col{"tag"}, sel.Schema(), db.Env())
	arg := mustBindX(t, Col{"vg"}, sel.Schema(), db.Env())
	plan, err := NewGroupPlan(sel,
		[]NamedBound{{Name: "tag", Expr: tag}},
		[]AggSpec{{Kind: AggSum, Arg: arg, Name: "total"}})
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, plan, map[string]float64{"week": 10}, 200)
}

func TestColumnarOrderByUniformAndLimit(t *testing.T) {
	db := columnarDB(t)
	scan, _ := db.Scan("purchases")
	key := mustBindX(t, Col{"volume"}, scan.Schema(), db.Env())
	plan := &LimitPlan{Child: &OrderByPlan{Child: scan, Key: key, Desc: true}, N: 2}
	assertBitIdentical(t, plan, nil, 200)
}

func TestColumnarOrderByWorldVaryingKey(t *testing.T) {
	// Sorting by an uncertain column permutes rows differently per
	// world: the per-world sort path must gather positionally.
	db := columnarDB(t)
	scan, _ := db.Scan("purchases")
	ext := vgExtendPlan(t, db, scan, "vg")
	key := mustBindX(t, Col{"vg"}, ext.Schema(), db.Env())
	plan := &OrderByPlan{Child: ext, Key: key}
	assertBitIdentical(t, plan, map[string]float64{"week": 20}, 250)
}

func TestColumnarOrderByNullKeysAndLimitMasked(t *testing.T) {
	// NULL keys sort first; a masked limit keeps each world's own
	// first N rows.
	db := columnarDB(t)
	tbl := MustNewTable("v")
	tbl.MustAppend(Row{Float(2)})
	tbl.MustAppend(Row{Null()})
	tbl.MustAppend(Row{Float(1)})
	scan := NewScanPlan("t", tbl)
	key := mustBindX(t, Col{"v"}, scan.Schema(), nil)
	assertBitIdentical(t, &OrderByPlan{Child: scan, Key: key}, nil, 64)

	sel := signSelectPlan(t, db)
	assertBitIdentical(t, &LimitPlan{Child: sel, N: 1}, map[string]float64{"week": 20}, 250)
}

func TestColumnarJoinWithVGPredicate(t *testing.T) {
	db := columnarDB(t)
	left, _ := db.Scan("purchases")
	right, _ := db.Scan("regions")
	schema := left.Schema().Concat(right.Schema())
	pred := mustBindX(t, BinOp{"AND",
		BinOp{"=", Col{"region"}, Col{"name"}},
		BinOp{">", Call{"DemandModel", []Expr{Col{"week"}, Lit{Float(99)}}}, Lit{Float(5)}},
	}, schema, db.Env())
	join := NewJoinPlan(left, right, pred)
	vol := mustBindX(t, Col{"volume"}, join.Schema(), db.Env())
	plan, err := NewGroupPlan(join, nil, []AggSpec{
		{Kind: AggSum, Arg: vol, Name: "total"},
		{Kind: AggCount, Arg: nil, Name: "n"},
	})
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, plan, nil, 250)
}

func TestColumnarCrossJoin(t *testing.T) {
	db := columnarDB(t)
	left, _ := db.Scan("purchases")
	right, _ := db.Scan("regions")
	plan := NewJoinPlan(left, right, nil)
	assertBitIdentical(t, plan, nil, 100)
}

func TestColumnarCaseBranchDraws(t *testing.T) {
	// VG draws inside CASE branches: each branch must draw only in the
	// worlds that take it.
	db := columnarDB(t)
	ext := vgExtendPlan(t, db, ValuesPlan{}, "demand")
	branch := mustBindX(t, Case{
		When: BinOp{">", Col{"demand"}, Param{"week"}},
		Then: Call{"CapacityModel", []Expr{Param{"week"}, Lit{Float(8)}, Lit{Float(24)}}},
		Else: Lit{Float(0)},
	}, ext.Schema(), db.Env())
	plan, err := NewExtendPlan(ext, []NamedBound{{Name: "c", Expr: branch}})
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, plan, map[string]float64{"week": 20}, 300)
}

func TestColumnarBuiltinsParamsAndNulls(t *testing.T) {
	db := columnarDB(t)
	tbl := MustNewTable("a", "b")
	tbl.MustAppend(Row{Float(4), Float(2)})
	tbl.MustAppend(Row{Null(), Float(3)})
	tbl.MustAppend(Row{Float(9), Null()})
	scan := NewScanPlan("t", tbl)
	env := db.Env()
	outs := []NamedBound{
		{Name: "s", Expr: mustBindX(t, Call{"SQRT", []Expr{Col{"a"}}}, scan.Schema(), env)},
		{Name: "p", Expr: mustBindX(t, Call{"POW", []Expr{Col{"a"}, Col{"b"}}}, scan.Schema(), env)},
		{Name: "m", Expr: mustBindX(t, Call{"MINV", []Expr{Col{"a"}, Param{"week"}}}, scan.Schema(), env)},
		{Name: "q", Expr: mustBindX(t, BinOp{"/", Col{"a"}, BinOp{"-", Col{"b"}, Col{"b"}}}, scan.Schema(), env)},
		{Name: "n", Expr: mustBindX(t, Neg{Col{"a"}}, scan.Schema(), env)},
		{Name: "vgnull", Expr: mustBindX(t, Call{"DemandModel", []Expr{Col{"a"}, Col{"b"}}}, scan.Schema(), env)},
		{Name: "cmp", Expr: mustBindX(t, BinOp{">=", Col{"a"}, Col{"b"}}, scan.Schema(), env)},
		{Name: "lg", Expr: mustBindX(t, BinOp{"AND", BinOp{">", Col{"a"}, Lit{Float(0)}}, Not{BinOp{"<", Col{"b"}, Lit{Float(0)}}}}, scan.Schema(), env)},
	}
	plan, err := NewExtendPlan(scan, outs)
	if err != nil {
		t.Fatal(err)
	}
	// The NULL-argument rows must skip the VG draw in every world
	// (vgnull on rows 2 and 3), shifting no stream positions.
	assertBitIdentical(t, plan, map[string]float64{"week": 3}, 200)
}

func TestColumnarCustomExprAndPlanFallback(t *testing.T) {
	// A hand-written BoundFunc and a hand-written Plan exercise both
	// scalar fallback adapters inside a columnar run.
	db := columnarDB(t)
	ext := vgExtendPlan(t, db, ValuesPlan{}, "demand")
	custom := BoundFunc(func(row Row, ctx *RowCtx) (Value, error) {
		f, err := row[0].AsFloat()
		if err != nil {
			return Null(), err
		}
		// Draw through the world generator so adapter stream positions
		// are observable downstream.
		return Float(f + ctx.Rand.Uniform(0, 1)), nil
	})
	ext2, err := NewExtendPlan(ext, []NamedBound{{Name: "adj", Expr: custom}})
	if err != nil {
		t.Fatal(err)
	}
	wrapped := opaquePlan{ext2}
	after := vgExtendPlan(t, db, wrapped, "vg2")
	assertBitIdentical(t, after, map[string]float64{"week": 15}, 200)
}

// opaquePlan hides a plan's BlockPlan capability, forcing the
// per-world fallback adapter.
type opaquePlan struct{ inner Plan }

func (o opaquePlan) Schema() Schema                    { return o.inner.Schema() }
func (o opaquePlan) Execute(c *RowCtx) (*Table, error) { return o.inner.Execute(c) }
func (o opaquePlan) String() string                    { return "Opaque(" + o.inner.String() + ")" }

func TestColumnarCardinalityErrorParity(t *testing.T) {
	// A filter over an uncertain value with genuinely varying counts
	// must fail identically (message and all) in both modes.
	db := columnarDB(t)
	ext := vgExtendPlan(t, db, ValuesPlan{}, "demand")
	pred := mustBindX(t, BinOp{">", Col{"demand"}, Param{"week"}}, ext.Schema(), db.Env())
	plan := &SelectPlan{Child: ext, Pred: pred, Desc: "demand > week"}
	opts := WorldsOptions{Worlds: 200, MasterSeed: 7, blockWorlds: 64}
	sOpts := opts
	sOpts.Mode = ExecScalar
	_, wantErr := RunDistribution(plan, map[string]float64{"week": 20}, sOpts)
	_, gotErr := RunDistribution(plan, map[string]float64{"week": 20}, opts)
	if wantErr == nil || gotErr == nil {
		t.Fatalf("expected both modes to reject varying cardinality (scalar %v, columnar %v)", wantErr, gotErr)
	}
	if wantErr.Error() != gotErr.Error() {
		t.Fatalf("error mismatch:\nscalar:   %v\ncolumnar: %v", wantErr, gotErr)
	}
	if !strings.Contains(gotErr.Error(), "world-invariant") {
		t.Fatalf("unexpected error %v", gotErr)
	}
}

func TestColumnarBulkVGSumBitIdentical(t *testing.T) {
	// BulkVGSumPlan is a special case of the columnar path: its sums
	// must match per-world interpretation of the equivalent tree
	// bit-for-bit, under either executor.
	users := blackbox.GenerateUsers(60, 11)
	tbl := MustNewTable("join_week", "base", "growth", "vol")
	for _, u := range users {
		tbl.MustAppend(Row{Float(u.JoinWeek), Float(u.BaseCores), Float(u.GrowthRate), Float(u.Volatility)})
	}
	var args []BoundExpr
	scan := NewScanPlan("users", tbl)
	for _, e := range []Expr{Param{"week"}, Col{"join_week"}, Col{"base"}, Col{"growth"}, Col{"vol"}} {
		args = append(args, mustBindX(t, e, scan.Schema(), nil))
	}
	bulk := &BulkVGSumPlan{Source: tbl, Box: blackbox.UserUsage{}, Args: args}
	params := map[string]float64{"week": 40}
	for _, bw := range []int{1, 7, 256, 1000} {
		opts := WorldsOptions{Worlds: 300, MasterSeed: 9, blockWorlds: bw}
		col, err := bulk.Run(params, opts)
		if err != nil {
			t.Fatal(err)
		}
		sOpts := opts
		sOpts.Mode = ExecScalar
		ref, err := bulk.Run(params, sOpts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(col, ref) {
			t.Fatalf("bw=%d: bulk sums diverge between executors", bw)
		}
	}
}

func TestColumnarSubsumesBulkPlan(t *testing.T) {
	// The general columnar executor over the explicit plan tree must
	// agree with BulkVGSumPlan exactly — it *is* the same machinery.
	users := blackbox.GenerateUsers(40, 3)
	tbl := MustNewTable("join_week", "base", "growth", "vol")
	for _, u := range users {
		tbl.MustAppend(Row{Float(u.JoinWeek), Float(u.BaseCores), Float(u.GrowthRate), Float(u.Volatility)})
	}
	db := NewDB()
	db.Boxes.MustRegister(blackbox.UserUsage{})
	if err := db.CreateTable("users", tbl); err != nil {
		t.Fatal(err)
	}
	scan, _ := db.Scan("users")
	usage := mustBindX(t, Call{"UserUsage", []Expr{
		Param{"week"}, Col{"join_week"}, Col{"base"}, Col{"growth"}, Col{"vol"},
	}}, scan.Schema(), db.Env())
	plan, err := NewGroupPlan(scan, nil, []AggSpec{{Kind: AggSum, Arg: usage, Name: "total"}})
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]float64{"week": 40}
	opts := WorldsOptions{Worlds: 200, MasterSeed: 5, KeepSamples: true}
	dist, err := RunDistribution(plan, params, opts)
	if err != nil {
		t.Fatal(err)
	}
	cell, err := dist.CellByName(0, "total")
	if err != nil {
		t.Fatal(err)
	}

	var args []BoundExpr
	for _, e := range []Expr{Param{"week"}, Col{"join_week"}, Col{"base"}, Col{"growth"}, Col{"vol"}} {
		args = append(args, mustBindX(t, e, scan.Schema(), db.Env()))
	}
	bulk := &BulkVGSumPlan{Source: tbl, Box: blackbox.UserUsage{}, Args: args}
	sums, err := bulk.Run(params, opts)
	if err != nil {
		t.Fatal(err)
	}
	samples := dist.Cells[0][0]
	_ = samples
	acc := cell
	if len(sums) != opts.Worlds {
		t.Fatalf("bulk returned %d sums for %d worlds", len(sums), opts.Worlds)
	}
	// Same draws ⇒ same per-world sums ⇒ same min/max exactly.
	mn, mx := sums[0], sums[0]
	for _, s := range sums {
		if s < mn {
			mn = s
		}
		if s > mx {
			mx = s
		}
	}
	if acc.Min != mn || acc.Max != mx {
		t.Fatalf("bulk sums [%g,%g] vs distribution cell [%g,%g]", mn, mx, acc.Min, acc.Max)
	}
}

func TestColumnarKeyRows(t *testing.T) {
	// String cells surface as KeyRows in both executors.
	db := columnarDB(t)
	scan, _ := db.Scan("purchases")
	region := mustBindX(t, Col{"region"}, scan.Schema(), db.Env())
	vol := mustBindX(t, Col{"volume"}, scan.Schema(), db.Env())
	plan, err := NewGroupPlan(scan,
		[]NamedBound{{Name: "region", Expr: region}},
		[]AggSpec{{Kind: AggSum, Arg: vol, Name: "total"}})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := RunDistribution(plan, nil, WorldsOptions{Worlds: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(dist.KeyRows) != 2 {
		t.Fatalf("KeyRows = %v", dist.KeyRows)
	}
	if s, _ := dist.KeyRows[0][0].Text(); s != "east" {
		t.Fatalf("KeyRows[0][0] = %v", dist.KeyRows[0][0])
	}
	if !dist.KeyRows[0][1].IsNull() {
		t.Fatal("numeric cell leaked into KeyRows")
	}
}
