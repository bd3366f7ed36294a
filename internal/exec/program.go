package exec

import (
	"jigsaw/internal/blackbox"
	"jigsaw/internal/param"
	"jigsaw/internal/rng"
)

// The lightweight engine's compiled form (§6.1): a scenario's columns
// lower to a straight-line program that evaluates a block of sampled
// worlds per call, set-at-a-time rather than one world per call
// (Antova et al., PAPERS.md). Each world owns a generator seeded from
// its sample seed, and the program keeps every world's scalar draw
// order — model calls left to right, every CASE arm's WHEN and THEN
// evaluated, ELSE only where no WHEN holds — so a column's samples are
// bit-identical to evaluating the row one world at a time, whatever
// the block width.
//
// Values are uniform (the same in every world of a parameter point) or
// varying. Literals, @parameters and arithmetic over them are uniform:
// the bind-time instructions compute them once per point into the
// bound slots. Model calls draw, so they and everything downstream
// vary: the run-time instructions compute them into one column per
// value. A model call whose arguments are all uniform draws its whole
// column through blackbox.EvalStream; any other call loops box.Eval
// per world.

// opcode names a program instruction.
type opcode uint8

const (
	// Element-wise binary operators: dst = x op y.
	opAdd opcode = iota
	opSub
	opMul
	opDiv
	opLt
	opLe
	opGt
	opGe
	opEq
	opNe
	opAnd
	opOr
	opMin // MINV
	opMax // MAXV
	// Element-wise unary operators: dst = op x.
	opNeg
	opNot
	opAbs
	opCopy
	// Bind-time loads: dst = @name, dst = k.
	opParam
	opConst
	// opCase selects, per world, the THEN of the first WHEN in ops
	// (WHEN, THEN pairs) that is non-zero, and x where none is.
	opCase
	// opElseMask marks in mask dst the worlds of mask that no WHEN in
	// ops selects: the worlds whose ELSE runs.
	opElseMask
	// opStream draws box for the worlds of mask against the bound
	// argument vector slots[lo:hi].
	opStream
	// opCall draws box for the worlds of mask, gathering the argument
	// operands ops per world.
	opCall
)

// binaryOps maps the script's binary operators to opcodes.
var binaryOps = map[string]opcode{
	"+": opAdd, "-": opSub, "*": opMul, "/": opDiv,
	"<": opLt, "<=": opLe, ">": opGt, ">=": opGe, "=": opEq, "<>": opNe,
	"AND": opAnd, "OR": opOr,
}

// builtins maps the scalar built-in functions to opcodes; ABS takes
// one argument, MINV and MAXV two.
var builtins = map[string]opcode{
	"ABS": opAbs, "abs": opAbs,
	"MINV": opMin, "minv": opMin,
	"MAXV": opMax, "maxv": opMax,
}

// operand names a value: bound slot idx when uniform, else column idx
// of the frame.
type operand struct {
	uniform bool
	idx     int
}

// instr is one program instruction. dst is a bound slot for bind-time
// instructions, a column for run-time ones and a mask for opElseMask.
type instr struct {
	op     opcode
	dst    int
	x, y   operand
	ops    []operand
	box    blackbox.Box
	mask   int // worlds a call draws for, or an else mask's parent (0: all)
	lo, hi int
	name   string
	k      float64
}

// program is a compiled scenario. Column i's instructions end at
// bindEnd[i] and runEnd[i]; the prefix through column i evaluates it
// and every column before it, and nothing after it.
type program struct {
	bind, run       []instr
	cols            []operand
	bindEnd, runEnd []int
	// nslots, nvecs and nmasks size the bound slots, the frame's
	// columns and its else masks; maxArgs sizes per-world call
	// arguments.
	nslots, nvecs, nmasks, maxArgs int
}

// bindPoint runs the bind-time instructions code for p into buf,
// grown to the program's slot count. A parameter p does not bind
// panics: compilation resolved every name against the declared space,
// so only a caller that skipped a declared parameter reaches it.
func (pr *program) bindPoint(code []instr, p param.Point, buf []float64) []float64 {
	buf = grow(buf, pr.nslots)
	f := frame{width: 1, slots: buf}
	for i := range code {
		in := &code[i]
		switch in.op {
		case opParam:
			buf[in.dst] = p.MustGet(in.name)
		case opConst:
			buf[in.dst] = in.k
		default:
			f.exec(in, buf[in.dst:in.dst+1])
		}
	}
	return buf
}

// frame is one call's working state: the bound slots it reads, one
// column per varying value, the else masks, one generator per world
// and the per-world call arguments. Frames are pooled per scenario;
// own keeps the frame's bind buffer for calls that bind a point
// themselves.
type frame struct {
	width int
	slots []float64
	own   []float64
	vecs  []float64
	masks []bool
	rands []rng.Rand
	args  []float64
}

// resize shapes f for width worlds of pr.
func (f *frame) resize(pr *program, width int) {
	f.width = width
	f.vecs = grow(f.vecs, pr.nvecs*width)
	f.masks = grow(f.masks, pr.nmasks*width)
	f.rands = grow(f.rands, width)
	f.args = grow(f.args, pr.maxArgs)
}

// grow returns s resliced to n, reallocated when too short (values
// undefined).
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// value returns o's values and their stride: 0 for a uniform value,
// read at index 0 in every world.
func (f *frame) value(o operand) ([]float64, int) {
	if o.uniform {
		return f.slots[o.idx : o.idx+1], 0
	}
	return f.vecs[o.idx*f.width : (o.idx+1)*f.width], 1
}

// at returns o's value in world w.
func (f *frame) at(o operand, w int) float64 {
	v, s := f.value(o)
	return v[w*s]
}

// mask returns mask m's worlds, nil (all worlds) for m == 0.
func (f *frame) mask(m int) []bool {
	if m == 0 {
		return nil
	}
	return f.masks[(m-1)*f.width : m*f.width]
}

// run executes run-time instructions over the frame's worlds.
func (f *frame) run(code []instr) {
	for i := range code {
		in := &code[i]
		if in.op == opElseMask {
			f.elseMask(in)
			continue
		}
		f.exec(in, f.vecs[in.dst*f.width:(in.dst+1)*f.width])
	}
}

// exec computes in into dst, one value per world.
func (f *frame) exec(in *instr, dst []float64) {
	switch in.op {
	case opStream:
		blackbox.EvalStream(in.box, f.slots[in.lo:in.hi], dst, f.rands, f.mask(in.mask))
	case opCall:
		args, active := f.args[:len(in.ops)], f.mask(in.mask)
		for w := range dst {
			if active != nil && !active[w] {
				continue
			}
			for i, o := range in.ops {
				args[i] = f.at(o, w)
			}
			dst[w] = in.box.Eval(args, &f.rands[w])
		}
	case opCase:
		// Arms in reverse, so the first WHEN that holds writes last.
		x, sx := f.value(in.x)
		for w := range dst {
			dst[w] = x[w*sx]
		}
		for i := len(in.ops) - 2; i >= 0; i -= 2 {
			c, sc := f.value(in.ops[i])
			t, st := f.value(in.ops[i+1])
			for w := range dst {
				if c[w*sc] != 0 {
					dst[w] = t[w*st]
				}
			}
		}
	default:
		x, sx := f.value(in.x)
		y, sy := f.value(in.y)
		elementwise(in.op, dst, x, sx, y, sy)
	}
}

// elseMask computes the worlds of in's parent mask that no WHEN holds
// in.
func (f *frame) elseMask(in *instr) {
	out, parent := f.mask(in.dst), f.mask(in.mask)
	for w := range out {
		out[w] = parent == nil || parent[w]
	}
	for i := 0; i < len(in.ops); i += 2 {
		c, sc := f.value(in.ops[i])
		for w := range out {
			if c[w*sc] != 0 {
				out[w] = false
			}
		}
	}
}

// elementwise applies op per world: dst[w] = x[w*sx] op y[w*sy]
// (unary operators ignore y).
func elementwise(op opcode, dst, x []float64, sx int, y []float64, sy int) {
	fn := scalarOps[op]
	for w := range dst {
		dst[w] = fn(x[w*sx], y[w*sy])
	}
}

// scalarOps are the element-wise operators on one world's values.
// Booleans are 0/1 floats.
var scalarOps = [...]func(a, b float64) float64{
	opAdd: func(a, b float64) float64 { return a + b },
	opSub: func(a, b float64) float64 { return a - b },
	opMul: func(a, b float64) float64 { return a * b },
	opDiv: func(a, b float64) float64 { return a / b },
	opLt:  func(a, b float64) float64 { return b2f(a < b) },
	opLe:  func(a, b float64) float64 { return b2f(a <= b) },
	opGt:  func(a, b float64) float64 { return b2f(a > b) },
	opGe:  func(a, b float64) float64 { return b2f(a >= b) },
	opEq:  func(a, b float64) float64 { return b2f(a == b) },
	opNe:  func(a, b float64) float64 { return b2f(a != b) },
	opAnd: func(a, b float64) float64 { return b2f(a != 0 && b != 0) },
	opOr:  func(a, b float64) float64 { return b2f(a != 0 || b != 0) },
	opMin: func(a, b float64) float64 {
		if a < b {
			return a
		}
		return b
	},
	opMax: func(a, b float64) float64 {
		if a > b {
			return a
		}
		return b
	},
	opNeg: func(a, _ float64) float64 { return -a },
	opNot: func(a, _ float64) float64 { return b2f(a == 0) },
	// Not math.Abs: ABS(-0) stays -0, as it always has.
	opAbs: func(a, _ float64) float64 {
		if a < 0 {
			return -a
		}
		return a
	},
	opCopy: func(a, _ float64) float64 { return a },
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
