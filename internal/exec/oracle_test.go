package exec

import (
	"errors"
	"fmt"

	"jigsaw/internal/blackbox"
	"jigsaw/internal/param"
	"jigsaw/internal/rng"
	"jigsaw/internal/sqlparse"
)

// The reference oracle: the closure interpreter the columnar program
// replaced. It evaluates one world per call, column by column, each
// expression a tree of closures drawing from one generator. The
// bit-identity tests (columnar_test.go) hold the program to it.

// colEval evaluates one column for one world; slots holds the earlier
// columns' values.
type colEval func(slots []float64, p param.Point, r *rng.Rand) float64

// oracle is a scenario compiled to closures.
type oracle struct {
	cols  []string
	evals []colEval
}

// compileOracle compiles sel's columns (selectColumns order) to
// closures.
func compileOracle(script *sqlparse.Script, boxes *blackbox.Registry) (*oracle, error) {
	cols, err := selectColumns(script.Selects[len(script.Selects)-1])
	if err != nil {
		return nil, err
	}
	o := &oracle{}
	slotIndex := map[string]int{}
	for _, c := range cols {
		ev, err := compileExpr(c.expr, slotIndex, boxes)
		if err != nil {
			return nil, fmt.Errorf("column %q: %w", c.name, err)
		}
		slotIndex[c.name] = len(o.evals)
		o.cols = append(o.cols, c.name)
		o.evals = append(o.evals, ev)
	}
	return o, nil
}

// row evaluates the first len(out) columns into out, in order.
func (o *oracle) row(p param.Point, r *rng.Rand, out []float64) {
	for i := range out {
		out[i] = o.evals[i](out, p, r)
	}
}

// compileExpr lowers a parsed expression to the closure form.
// Booleans are represented as 0/1 floats.
func compileExpr(e sqlparse.Expr, slots map[string]int, boxes *blackbox.Registry) (colEval, error) {
	switch n := e.(type) {
	case *sqlparse.NumberLit:
		v := n.Value
		return func([]float64, param.Point, *rng.Rand) float64 { return v }, nil
	case *sqlparse.StringLit:
		return nil, errors.New("string literals are not numeric")
	case *sqlparse.ColRef:
		idx, ok := slots[n.Name]
		if !ok {
			return nil, fmt.Errorf("unknown column %q", n.Name)
		}
		return func(s []float64, _ param.Point, _ *rng.Rand) float64 { return s[idx] }, nil
	case *sqlparse.ParamRef:
		name := n.Name
		return func(_ []float64, p param.Point, _ *rng.Rand) float64 { return p.MustGet(name) }, nil
	case *sqlparse.Unary:
		inner, err := compileExpr(n.E, slots, boxes)
		if err != nil {
			return nil, err
		}
		if n.Op == "NOT" {
			return func(s []float64, p param.Point, r *rng.Rand) float64 {
				if inner(s, p, r) == 0 {
					return 1
				}
				return 0
			}, nil
		}
		return func(s []float64, p param.Point, r *rng.Rand) float64 { return -inner(s, p, r) }, nil
	case *sqlparse.Binary:
		return compileBinary(n, slots, boxes)
	case *sqlparse.CaseExpr:
		return compileCase(n, slots, boxes)
	case *sqlparse.FuncCall:
		return compileCall(n, slots, boxes)
	default:
		return nil, fmt.Errorf("unsupported expression %T", e)
	}
}

func compileBinary(n *sqlparse.Binary, slots map[string]int, boxes *blackbox.Registry) (colEval, error) {
	l, err := compileExpr(n.Left, slots, boxes)
	if err != nil {
		return nil, err
	}
	r, err := compileExpr(n.Right, slots, boxes)
	if err != nil {
		return nil, err
	}
	var op func(a, b float64) float64
	switch n.Op {
	case "+":
		op = func(a, b float64) float64 { return a + b }
	case "-":
		op = func(a, b float64) float64 { return a - b }
	case "*":
		op = func(a, b float64) float64 { return a * b }
	case "/":
		op = func(a, b float64) float64 { return a / b }
	case "<":
		op = func(a, b float64) float64 { return b2f(a < b) }
	case "<=":
		op = func(a, b float64) float64 { return b2f(a <= b) }
	case ">":
		op = func(a, b float64) float64 { return b2f(a > b) }
	case ">=":
		op = func(a, b float64) float64 { return b2f(a >= b) }
	case "=":
		op = func(a, b float64) float64 { return b2f(a == b) }
	case "<>":
		op = func(a, b float64) float64 { return b2f(a != b) }
	case "AND":
		op = func(a, b float64) float64 { return b2f(a != 0 && b != 0) }
	case "OR":
		op = func(a, b float64) float64 { return b2f(a != 0 || b != 0) }
	default:
		return nil, fmt.Errorf("unsupported operator %q", n.Op)
	}
	return func(s []float64, p param.Point, rr *rng.Rand) float64 {
		a := l(s, p, rr)
		return op(a, r(s, p, rr))
	}, nil
}

// compileCase evaluates every arm's WHEN and THEN in order, and the
// ELSE only when no WHEN holds.
func compileCase(n *sqlparse.CaseExpr, slots map[string]int, boxes *blackbox.Registry) (colEval, error) {
	type arm struct{ when, then colEval }
	arms := make([]arm, 0, len(n.Whens))
	for _, a := range n.Whens {
		w, err := compileExpr(a.When, slots, boxes)
		if err != nil {
			return nil, err
		}
		t, err := compileExpr(a.Then, slots, boxes)
		if err != nil {
			return nil, err
		}
		arms = append(arms, arm{w, t})
	}
	var elseEv colEval
	if n.Else != nil {
		var err error
		if elseEv, err = compileExpr(n.Else, slots, boxes); err != nil {
			return nil, err
		}
	}
	return func(s []float64, p param.Point, r *rng.Rand) float64 {
		chosen := -1
		result := 0.0
		for i, a := range arms {
			c := a.when(s, p, r)
			v := a.then(s, p, r)
			if chosen == -1 && c != 0 {
				chosen = i
				result = v
			}
		}
		if chosen >= 0 {
			return result
		}
		if elseEv != nil {
			return elseEv(s, p, r)
		}
		return 0
	}, nil
}

func compileCall(n *sqlparse.FuncCall, slots map[string]int, boxes *blackbox.Registry) (colEval, error) {
	if n.Name == "NULL" {
		return nil, errors.New("NULL is not supported by the lightweight engine")
	}
	args := make([]colEval, len(n.Args))
	for i, a := range n.Args {
		ev, err := compileExpr(a, slots, boxes)
		if err != nil {
			return nil, err
		}
		args[i] = ev
	}
	if fn, arity, ok := scalarBuiltin(n.Name); ok {
		if arity != len(args) {
			return nil, fmt.Errorf("%s expects %d args, got %d", n.Name, arity, len(args))
		}
		return func(s []float64, p param.Point, r *rng.Rand) float64 {
			buf := make([]float64, len(args))
			for i, a := range args {
				buf[i] = a(s, p, r)
			}
			return fn(buf)
		}, nil
	}
	if boxes == nil {
		return nil, fmt.Errorf("unknown function %q (no registry)", n.Name)
	}
	box, err := boxes.Lookup(n.Name)
	if err != nil {
		return nil, err
	}
	if box.Arity() != len(args) {
		return nil, fmt.Errorf("%s expects %d args, got %d", n.Name, box.Arity(), len(args))
	}
	return func(s []float64, p param.Point, r *rng.Rand) float64 {
		buf := make([]float64, len(args))
		for i, a := range args {
			buf[i] = a(s, p, r)
		}
		return box.Eval(buf, r)
	}, nil
}

func scalarBuiltin(name string) (func([]float64) float64, int, bool) {
	switch name {
	case "ABS", "abs":
		return func(a []float64) float64 {
			if a[0] < 0 {
				return -a[0]
			}
			return a[0]
		}, 1, true
	case "MINV", "minv":
		return func(a []float64) float64 {
			if a[0] < a[1] {
				return a[0]
			}
			return a[1]
		}, 2, true
	case "MAXV", "maxv":
		return func(a []float64) float64 {
			if a[0] > a[1] {
				return a[0]
			}
			return a[1]
		}, 2, true
	default:
		return nil, 0, false
	}
}
