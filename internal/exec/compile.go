// Package exec binds parsed Jigsaw scripts (internal/sqlparse) to the
// execution substrates: the lightweight Monte Carlo engine with
// fingerprint reuse (internal/mc), the PDB wrapper (internal/pdb), and
// the Markov chain evaluator (internal/markov). It corresponds to the
// query-processing pipeline of Fig. 3. Scenario SELECTs compile to a
// columnar program (program.go) that evaluates a block of sampled
// worlds per call, so the engine's block pipeline drives them like any
// other block-capable evaluator.
package exec

import (
	"errors"
	"fmt"

	"jigsaw/internal/blackbox"
	"jigsaw/internal/mc"
	"jigsaw/internal/param"
	"jigsaw/internal/pool"
	"jigsaw/internal/rng"
	"jigsaw/internal/sqlparse"
)

// Scenario is a compiled SELECT ... INTO definition: a parameter space
// plus a program producing all result columns for sampled worlds. The
// whole row evaluation is "the stochastic function F" that Jigsaw
// fingerprints (§3).
type Scenario struct {
	// Script is the source AST.
	Script *sqlparse.Script
	// Space enumerates the non-chain parameters.
	Space *param.Space
	// Columns are the result-table column names in SELECT order.
	Columns []string
	// Into is the results table name ("" when anonymous).
	Into string

	prog program
	// frames recycles the program's per-call working state.
	frames *pool.Pool[frame]
	// chains are the CHAIN declarations (Fig. 5).
	chains []param.Decl
}

// column is one result column: its name and defining expression.
type column struct {
	name string
	expr sqlparse.Expr
}

// CompileScenario compiles the script's SELECT statements against a
// black-box registry. Multiple SELECTs are allowed; the scenario is
// the last one with an INTO (or the last overall), matching how the
// paper's scripts build one results table. Every column, function and
// @parameter name resolves here, against the earlier columns, the
// registry and the declared parameters (CHAIN ones included), so
// evaluation cannot fail on resolution.
func CompileScenario(script *sqlparse.Script, boxes *blackbox.Registry) (*Scenario, error) {
	if script == nil || len(script.Selects) == 0 {
		return nil, errors.New("exec: script has no SELECT statement")
	}
	sel := script.Selects[len(script.Selects)-1]

	decls := make([]param.Decl, 0, len(script.Decls))
	var chains []param.Decl
	for _, d := range script.Decls {
		pd, err := convertDecl(d)
		if err != nil {
			return nil, err
		}
		decls = append(decls, pd)
		if pd.Kind == param.KindChain {
			chains = append(chains, pd)
		}
	}
	space, err := param.NewSpace(decls...)
	if err != nil {
		return nil, err
	}
	cols, err := selectColumns(sel)
	if err != nil {
		return nil, err
	}

	s := &Scenario{
		Script: script,
		Space:  space,
		Into:   sel.Into,
		frames: pool.NewPool[frame](nil),
		chains: chains,
	}
	c := compiler{
		prog:   &s.prog,
		space:  space,
		boxes:  boxes,
		names:  map[string]operand{},
		params: map[string]int{},
	}
	for _, col := range cols {
		o, err := c.expr(col.expr)
		if err != nil {
			return nil, fmt.Errorf("exec: column %q: %w", col.name, err)
		}
		c.names[col.name] = o
		s.Columns = append(s.Columns, col.name)
		s.prog.cols = append(s.prog.cols, o)
		s.prog.bindEnd = append(s.prog.bindEnd, len(s.prog.bind))
		s.prog.runEnd = append(s.prog.runEnd, len(s.prog.run))
	}
	return s, nil
}

// selectColumns flattens a scenario SELECT into its result columns in
// evaluation order: the columns of a FROM (SELECT ...) subquery first
// (Fig. 5), so outer items can reference them, then the outer items.
func selectColumns(sel *sqlparse.SelectStmt) ([]column, error) {
	var cols []column
	seen := map[string]bool{}
	var walk func(stmt *sqlparse.SelectStmt) error
	walk = func(stmt *sqlparse.SelectStmt) error {
		if stmt.Where != nil {
			return errors.New("exec: WHERE is not supported in scenario SELECTs " +
				"(filter on the OPTIMIZE constraints or use the PDB engine)")
		}
		if stmt.From != nil {
			if stmt.From.Table != "" {
				return fmt.Errorf("exec: FROM %s requires the PDB engine; "+
					"the lightweight engine evaluates model-only scenarios", stmt.From.Table)
			}
			if err := walk(stmt.From.Subquery); err != nil {
				return err
			}
		}
		for _, item := range stmt.Items {
			name := item.Name()
			// A bare reference to a column the subquery already
			// produced is a pass-through (Fig. 5 re-selects demand),
			// not a new column.
			if c, ok := item.Expr.(*sqlparse.ColRef); ok && seen[c.Name] && name == c.Name {
				continue
			}
			if seen[name] {
				return fmt.Errorf("exec: duplicate result column %q", name)
			}
			seen[name] = true
			cols = append(cols, column{name, item.Expr})
		}
		return nil
	}
	if err := walk(sel); err != nil {
		return nil, err
	}
	return cols, nil
}

// convertDecl lowers a parsed declaration into a param.Decl.
func convertDecl(d sqlparse.ParamDecl) (param.Decl, error) {
	switch d.Kind {
	case sqlparse.ParamRange:
		return param.Range(d.Name, d.Lo, d.Hi, d.Step)
	case sqlparse.ParamSet:
		return param.Set(d.Name, d.Values...)
	case sqlparse.ParamChain:
		return param.Chain(d.Name, d.ChainColumn, d.Driver, d.DriverOffset, d.Initial)
	default:
		return param.Decl{}, fmt.Errorf("exec: unknown parameter kind %d", int(d.Kind))
	}
}

// HasColumn reports whether the scenario produces the named column.
func (s *Scenario) HasColumn(name string) bool {
	for _, c := range s.Columns {
		if c == name {
			return true
		}
	}
	return false
}

// Chains returns the CHAIN declarations.
func (s *Scenario) Chains() []param.Decl { return s.chains }

// world runs a program prefix for the single world of generator r,
// which it leaves where that world's draws leave it. It binds p with
// bind first when args is nil. The caller reads the values from the
// returned frame and then releases it.
func (s *Scenario) world(bind, run []instr, p param.Point, args []float64, r *rng.Rand) *frame {
	f := s.frames.Get()
	f.resize(&s.prog, 1)
	if args == nil {
		f.own = s.prog.bindPoint(bind, p, f.own)
		args = f.own
	}
	f.slots = args
	f.rands[0] = *r
	f.run(run)
	*r = f.rands[0]
	return f
}

// release returns a frame to the pool, dropping its view of the
// caller's bound slots.
func (s *Scenario) release(f *frame) {
	f.slots = nil
	s.frames.Put(f)
}

// EvalRow evaluates all result columns for one world, in order, into
// out (len(out) must equal len(Columns)), advancing r by the row's
// draws.
func (s *Scenario) EvalRow(p param.Point, r *rng.Rand, out []float64) error {
	if len(out) != len(s.prog.cols) {
		return fmt.Errorf("exec: row buffer %d != %d columns", len(out), len(s.prog.cols))
	}
	for i := range s.prog.bind {
		if in := &s.prog.bind[i]; in.op == opParam {
			if _, ok := p.Get(in.name); !ok {
				return fmt.Errorf("exec: unbound parameter @%s", in.name)
			}
		}
	}
	f := s.world(s.prog.bind, s.prog.run, p, nil, r)
	for i, o := range s.prog.cols {
		out[i] = f.at(o, 0)
	}
	s.release(f)
	return nil
}

// ColumnEval returns a PointEval producing the named column: one world
// of the whole scenario, projected. Columns after it draw after it, so
// they cannot change it and are not evaluated. The evaluator
// implements mc.BlockBinder: the engine binds each point's parameters
// once and evaluates whole blocks of worlds per call.
func (s *Scenario) ColumnEval(name string) (mc.PointEval, error) {
	for i, c := range s.Columns {
		if c == name {
			return &columnEval{
				s:    s,
				bind: s.prog.bind[:s.prog.bindEnd[i]],
				run:  s.prog.run[:s.prog.runEnd[i]],
				out:  s.prog.cols[i],
			}, nil
		}
	}
	return nil, fmt.Errorf("exec: no result column %q (have %v)", name, s.Columns)
}

// columnEval evaluates the program prefix through one column.
type columnEval struct {
	s         *Scenario
	bind, run []instr
	out       operand
}

var _ mc.BlockBinder = (*columnEval)(nil)

// EvalPoint implements mc.PointEval: one world on r.
func (e *columnEval) EvalPoint(p param.Point, r *rng.Rand) float64 {
	f := e.s.world(e.bind, e.run, p, nil, r)
	v := f.at(e.out, 0)
	e.s.release(f)
	return v
}

// BindPoint implements mc.PointBinder: it resolves the point's
// parameters, and every value computed from parameters and literals
// alone, into buf.
func (e *columnEval) BindPoint(p param.Point, buf []float64) []float64 {
	return e.s.prog.bindPoint(e.bind, p, buf)
}

// EvalBound implements mc.PointBinder: one world on r.
func (e *columnEval) EvalBound(args []float64, r *rng.Rand) float64 {
	f := e.s.world(nil, e.run, nil, args, r)
	v := f.at(e.out, 0)
	e.s.release(f)
	return v
}

// EvalBlockBound implements mc.BlockBinder: one world per seed, each
// drawing from its own generator seeded with it.
func (e *columnEval) EvalBlockBound(args []float64, out []float64, seeds []uint64) {
	f := e.s.frames.Get()
	f.resize(&e.s.prog, len(seeds))
	f.slots = args
	for w, seed := range seeds {
		f.rands[w].Seed(seed)
	}
	f.run(e.run)
	v, s := f.value(e.out)
	for w := range out {
		out[w] = v[w*s]
	}
	e.s.release(f)
}

// compiler lowers column expressions into a program.
type compiler struct {
	prog  *program
	space *param.Space
	boxes *blackbox.Registry
	// names are the operands of the columns compiled so far.
	names map[string]operand
	// params are the bound slots of the parameters loaded so far.
	params map[string]int
	// mask is the else mask the emitted model calls draw under.
	mask int
}

// uniform emits a bind-time instruction into a fresh bound slot.
func (c *compiler) uniform(in instr) operand {
	in.dst = c.prog.nslots
	c.prog.nslots++
	c.prog.bind = append(c.prog.bind, in)
	return operand{uniform: true, idx: in.dst}
}

// varying emits a run-time instruction into a fresh column.
func (c *compiler) varying(in instr) operand {
	in.dst = c.prog.nvecs
	c.prog.nvecs++
	c.prog.run = append(c.prog.run, in)
	return operand{idx: in.dst}
}

// elementwise emits op over x and y: bound once per point when both
// are uniform, per world otherwise.
func (c *compiler) elementwise(op opcode, x, y operand) operand {
	in := instr{op: op, x: x, y: y}
	if x.uniform && y.uniform {
		return c.uniform(in)
	}
	return c.varying(in)
}

// expr compiles e, emitting its instructions in the scalar draw order.
// Booleans are represented as 0/1 floats.
func (c *compiler) expr(e sqlparse.Expr) (operand, error) {
	switch n := e.(type) {
	case *sqlparse.NumberLit:
		return c.uniform(instr{op: opConst, k: n.Value}), nil
	case *sqlparse.StringLit:
		return operand{}, errors.New("string literals are not numeric")
	case *sqlparse.ColRef:
		o, ok := c.names[n.Name]
		if !ok {
			return operand{}, fmt.Errorf("unknown column %q", n.Name)
		}
		return o, nil
	case *sqlparse.ParamRef:
		if slot, ok := c.params[n.Name]; ok {
			return operand{uniform: true, idx: slot}, nil
		}
		if _, ok := c.space.Decl(n.Name); !ok {
			return operand{}, fmt.Errorf("unknown parameter @%s (not declared)", n.Name)
		}
		o := c.uniform(instr{op: opParam, name: n.Name})
		c.params[n.Name] = o.idx
		return o, nil
	case *sqlparse.Unary:
		x, err := c.expr(n.E)
		if err != nil {
			return operand{}, err
		}
		if n.Op == "NOT" {
			return c.elementwise(opNot, x, x), nil
		}
		return c.elementwise(opNeg, x, x), nil
	case *sqlparse.Binary:
		x, err := c.expr(n.Left)
		if err != nil {
			return operand{}, err
		}
		y, err := c.expr(n.Right)
		if err != nil {
			return operand{}, err
		}
		op, ok := binaryOps[n.Op]
		if !ok {
			return operand{}, fmt.Errorf("unsupported operator %q", n.Op)
		}
		return c.elementwise(op, x, y), nil
	case *sqlparse.CaseExpr:
		return c.caseExpr(n)
	case *sqlparse.FuncCall:
		return c.call(n)
	default:
		return operand{}, fmt.Errorf("unsupported expression %T", e)
	}
}

// caseExpr compiles all arms. Unlike SQL's lazy CASE, *model calls
// inside untaken WHEN/THEN arms are still evaluated* so the generator
// stream advances identically on every code path — the fixed
// stream-consumption discipline that keeps fingerprints comparable
// across parameter values (§3.1). Scenario authors pay a little wasted
// work for deterministic alignment. The ELSE runs only in the worlds
// no WHEN selects, so when it draws it draws under an else mask.
func (c *compiler) caseExpr(n *sqlparse.CaseExpr) (operand, error) {
	in := instr{op: opCase}
	uniform := true
	for _, a := range n.Whens {
		w, err := c.expr(a.When)
		if err != nil {
			return operand{}, err
		}
		t, err := c.expr(a.Then)
		if err != nil {
			return operand{}, err
		}
		in.ops = append(in.ops, w, t)
		uniform = uniform && w.uniform && t.uniform
	}
	switch {
	case n.Else == nil:
		in.x = c.uniform(instr{op: opConst})
	case draws(n.Else):
		c.prog.nmasks++
		m := c.prog.nmasks
		c.prog.run = append(c.prog.run, instr{op: opElseMask, dst: m, mask: c.mask, ops: in.ops})
		parent := c.mask
		c.mask = m
		x, err := c.expr(n.Else)
		c.mask = parent
		if err != nil {
			return operand{}, err
		}
		in.x = x
	default:
		x, err := c.expr(n.Else)
		if err != nil {
			return operand{}, err
		}
		in.x = x
	}
	if uniform && in.x.uniform {
		return c.uniform(in), nil
	}
	return c.varying(in), nil
}

// draws reports whether e calls a model.
func draws(e sqlparse.Expr) bool {
	switch n := e.(type) {
	case *sqlparse.Unary:
		return draws(n.E)
	case *sqlparse.Binary:
		return draws(n.Left) || draws(n.Right)
	case *sqlparse.CaseExpr:
		for _, a := range n.Whens {
			if draws(a.When) || draws(a.Then) {
				return true
			}
		}
		return n.Else != nil && draws(n.Else)
	case *sqlparse.FuncCall:
		if _, ok := builtins[n.Name]; !ok {
			return true
		}
		for _, a := range n.Args {
			if draws(a) {
				return true
			}
		}
	}
	return false
}

// call compiles a built-in or model call. A model call whose
// arguments are all uniform binds them into one contiguous vector per
// point and draws the column through blackbox.EvalStream; any other
// gathers its arguments per world.
func (c *compiler) call(n *sqlparse.FuncCall) (operand, error) {
	if n.Name == "NULL" {
		return operand{}, errors.New("NULL is not supported by the lightweight engine")
	}
	args := make([]operand, len(n.Args))
	uniform := true
	for i, a := range n.Args {
		o, err := c.expr(a)
		if err != nil {
			return operand{}, err
		}
		args[i] = o
		uniform = uniform && o.uniform
	}
	if op, ok := builtins[n.Name]; ok {
		arity := 2
		if op == opAbs {
			arity = 1
		}
		if arity != len(args) {
			return operand{}, fmt.Errorf("%s expects %d args, got %d", n.Name, arity, len(args))
		}
		return c.elementwise(op, args[0], args[arity-1]), nil
	}
	if c.boxes == nil {
		return operand{}, fmt.Errorf("unknown function %q (no registry)", n.Name)
	}
	box, err := c.boxes.Lookup(n.Name)
	if err != nil {
		return operand{}, err
	}
	if box.Arity() != len(args) {
		return operand{}, fmt.Errorf("%s expects %d args, got %d", n.Name, box.Arity(), len(args))
	}
	in := instr{op: opCall, box: box, mask: c.mask, ops: args}
	if uniform {
		in.op, in.ops, in.lo = opStream, nil, c.prog.nslots
		for _, a := range args {
			c.uniform(instr{op: opCopy, x: a, y: a})
		}
		in.hi = c.prog.nslots
	} else if len(args) > c.prog.maxArgs {
		c.prog.maxArgs = len(args)
	}
	return c.varying(in), nil
}
