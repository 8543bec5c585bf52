// Package expr implements the scalar expression language of the engine:
// typed expression trees that evaluate vectorized (one output vector per
// input batch), plus the static analysis the BDCC query rewriter relies on
// (conjunct splitting and extraction of value intervals per column, which the
// rewriter maps onto dimension bin ranges and MinMax pages).
//
// Boolean results are represented as Int64 vectors holding 0 or 1.
package expr

import (
	"fmt"
	"slices"
	"sync"

	"bdcc/internal/vector"
)

// ColMeta describes one column of a row schema.
type ColMeta struct {
	Name string
	Kind vector.Kind
}

// Schema is an ordered list of columns an expression can be bound against.
type Schema []ColMeta

// IndexOf returns the position of the named column, or -1.
func (s Schema) IndexOf(name string) int {
	for i, c := range s {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Kinds returns the kind of each column.
func (s Schema) Kinds() []vector.Kind {
	ks := make([]vector.Kind, len(s))
	for i, c := range s {
		ks[i] = c.Kind
	}
	return ks
}

// Names returns the name of each column.
func (s Schema) Names() []string {
	ns := make([]string, len(s))
	for i, c := range s {
		ns[i] = c.Name
	}
	return ns
}

// Expr is a scalar expression. Expressions are built unbound (column
// references by name), bound against a Schema with Bind, and then evaluated
// against batches conforming to that schema.
type Expr interface {
	// Kind returns the result kind. Only valid after Bind.
	Kind() vector.Kind
	// Eval appends one value per row of b to out (out must have the
	// expression's kind and is not reset).
	Eval(b *vector.Batch, out *vector.Vector)
	// String renders the expression for EXPLAIN output.
	String() string
}

// CmpOp enumerates comparison operators.
type CmpOp uint8

// Comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

func (o CmpOp) String() string {
	switch o {
	case EQ:
		return "="
	case NE:
		return "<>"
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	}
	return "?"
}

// ArithOp enumerates arithmetic operators.
type ArithOp uint8

// Arithmetic operators.
const (
	Add ArithOp = iota
	Sub
	Mul
	Div
)

func (o ArithOp) String() string {
	switch o {
	case Add:
		return "+"
	case Sub:
		return "-"
	case Mul:
		return "*"
	case Div:
		return "/"
	}
	return "?"
}

// Col references a column by name; Bind resolves Index and Kind.
type Col struct {
	Name  string
	Index int
	kind  vector.Kind
}

// C returns an unbound column reference.
func C(name string) *Col { return &Col{Name: name, Index: -1} }

// Kind implements Expr.
func (c *Col) Kind() vector.Kind { return c.kind }

// String implements Expr.
func (c *Col) String() string { return c.Name }

// Eval implements Expr.
func (c *Col) Eval(b *vector.Batch, out *vector.Vector) {
	src := b.Cols[c.Index]
	switch c.kind {
	case vector.Int64:
		out.I64 = append(out.I64, src.I64...)
	case vector.Float64:
		out.F64 = append(out.F64, src.F64...)
	case vector.String:
		out.Str = append(out.Str, src.Str...)
	}
}

// Const is a literal value.
type Const struct {
	K vector.Kind
	I int64
	F float64
	S string
}

// Int returns an int64 literal.
func Int(v int64) *Const { return &Const{K: vector.Int64, I: v} }

// Float returns a float64 literal.
func Float(v float64) *Const { return &Const{K: vector.Float64, F: v} }

// Str returns a string literal.
func Str(v string) *Const { return &Const{K: vector.String, S: v} }

// Date returns an int64 literal holding the day number of a YYYY-MM-DD date.
func Date(s string) *Const { return Int(vector.ParseDate(s)) }

// Kind implements Expr.
func (c *Const) Kind() vector.Kind { return c.K }

// String implements Expr.
func (c *Const) String() string {
	switch c.K {
	case vector.Int64:
		return fmt.Sprintf("%d", c.I)
	case vector.Float64:
		return fmt.Sprintf("%g", c.F)
	default:
		return fmt.Sprintf("%q", c.S)
	}
}

// Eval implements Expr.
func (c *Const) Eval(b *vector.Batch, out *vector.Vector) {
	n := b.Len()
	switch c.K {
	case vector.Int64:
		for i := 0; i < n; i++ {
			out.I64 = append(out.I64, c.I)
		}
	case vector.Float64:
		for i := 0; i < n; i++ {
			out.F64 = append(out.F64, c.F)
		}
	case vector.String:
		for i := 0; i < n; i++ {
			out.Str = append(out.Str, c.S)
		}
	}
}

// Cmp is a binary comparison producing a boolean (Int64 0/1).
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// NewCmp returns the comparison l op r.
func NewCmp(op CmpOp, l, r Expr) *Cmp { return &Cmp{Op: op, L: l, R: r} }

// Eq is shorthand for an equality comparison.
func Eq(l, r Expr) *Cmp { return NewCmp(EQ, l, r) }

// Kind implements Expr.
func (c *Cmp) Kind() vector.Kind { return vector.Int64 }

// String implements Expr.
func (c *Cmp) String() string { return fmt.Sprintf("(%s %s %s)", c.L, c.Op, c.R) }

// Eval implements Expr. Column operands are read in place and constants
// are compared directly; only computed operands are evaluated into scratch.
func (c *Cmp) Eval(b *vector.Batch, out *vector.Vector) {
	op, l, r := c.Op, c.L, c.R
	if _, ok := l.(*Const); ok {
		// k op x holds exactly when x flip(op) k: Compare is antisymmetric.
		op, l, r = flip(op), r, l
	}
	lv, lOwned := operand(l, b)
	if k, ok := r.(*Const); ok {
		// A constant is a one-value column broadcast over every row.
		switch lv.Kind {
		case vector.Int64:
			out.I64 = compare(op, lv.I64, []int64{k.I}, 0, out.I64, false)
		case vector.Float64:
			out.I64 = compare(op, lv.F64, []float64{k.F}, 0, out.I64, true)
		case vector.String:
			out.I64 = compare(op, lv.Str, []string{k.S}, 0, out.I64, false)
		}
	} else {
		rv, rOwned := operand(r, b)
		switch lv.Kind {
		case vector.Int64:
			out.I64 = compare(op, lv.I64, rv.I64, -1, out.I64, false)
		case vector.Float64:
			out.I64 = compare(op, lv.F64, rv.F64, -1, out.I64, true)
		case vector.String:
			out.I64 = compare(op, lv.Str, rv.Str, -1, out.I64, false)
		}
		release(rv, rOwned)
	}
	release(lv, lOwned)
}

type ordered interface{ int64 | float64 | string }

// compare appends (l[i] op r[i&mask]) for every row to out: mask -1 pairs
// the rows of two columns, mask 0 compares every row with r[0]. Results
// follow Vector.Compare: a pair that is neither less nor greater compares
// equal, which with nan set makes a NaN equal to everything.
func compare[T ordered](op CmpOp, l, r []T, mask int, out []int64, nan bool) []int64 {
	n := len(out)
	out = slices.Grow(out, len(l))[:n+len(l)]
	dst := out[n:]
	switch op {
	case EQ:
		for i, v := range l {
			w := r[i&mask]
			dst[i] = b2i(v == w || nan && (v != v || w != w))
		}
	case NE:
		for i, v := range l {
			w := r[i&mask]
			dst[i] = b2i(!(v == w || nan && (v != v || w != w)))
		}
	case LT:
		for i, v := range l {
			dst[i] = b2i(v < r[i&mask])
		}
	case LE:
		for i, v := range l {
			dst[i] = b2i(!(v > r[i&mask]))
		}
	case GT:
		for i, v := range l {
			dst[i] = b2i(v > r[i&mask])
		}
	case GE:
		for i, v := range l {
			dst[i] = b2i(!(v < r[i&mask]))
		}
	}
	return out
}

// And is an n-ary conjunction.
type And struct{ Args []Expr }

// NewAnd returns the conjunction of args (which must be boolean-valued).
func NewAnd(args ...Expr) *And { return &And{Args: args} }

// Kind implements Expr.
func (a *And) Kind() vector.Kind { return vector.Int64 }

// String implements Expr.
func (a *And) String() string { return nary("AND", a.Args) }

// Eval implements Expr.
func (a *And) Eval(b *vector.Batch, out *vector.Vector) { fold(a.Args, b, out, false) }

// Or is an n-ary disjunction.
type Or struct{ Args []Expr }

// NewOr returns the disjunction of args.
func NewOr(args ...Expr) *Or { return &Or{Args: args} }

// Kind implements Expr.
func (o *Or) Kind() vector.Kind { return vector.Int64 }

// String implements Expr.
func (o *Or) String() string { return nary("OR", o.Args) }

// Eval implements Expr.
func (o *Or) Eval(b *vector.Batch, out *vector.Vector) { fold(o.Args, b, out, true) }

// fold appends the row-wise AND (or, with or set, the OR) of args to out,
// accumulating in place from out's entry length: each argument appends its
// values behind the running result, which absorbs and drops them again.
// AND starts from all ones and OR from all zeros, so a non-0/1 argument
// folds exactly as bitwise arithmetic says.
func fold(args []Expr, b *vector.Batch, out *vector.Vector, or bool) {
	start, n := len(out.I64), b.Len()
	if len(args) == 0 {
		for i := 0; i < n; i++ {
			out.I64 = append(out.I64, b2i(!or))
		}
		return
	}
	args[0].Eval(b, out)
	if !or {
		acc := out.I64[start:]
		for i := range acc {
			acc[i] &= 1
		}
	}
	for _, arg := range args[1:] {
		arg.Eval(b, out)
		acc, vs := out.I64[start:start+n], out.I64[start+n:]
		if or {
			for i, v := range vs {
				acc[i] |= v
			}
		} else {
			for i, v := range vs {
				acc[i] &= v
			}
		}
		out.I64 = out.I64[:start+n]
	}
}

// Not negates a boolean expression.
type Not struct{ Arg Expr }

// NewNot returns NOT arg.
func NewNot(arg Expr) *Not { return &Not{Arg: arg} }

// Kind implements Expr.
func (n *Not) Kind() vector.Kind { return vector.Int64 }

// String implements Expr.
func (n *Not) String() string { return fmt.Sprintf("(NOT %s)", n.Arg) }

// Eval implements Expr.
func (n *Not) Eval(b *vector.Batch, out *vector.Vector) {
	start := len(out.I64)
	n.Arg.Eval(b, out)
	vs := out.I64[start:]
	for i, v := range vs {
		vs[i] = 1 - v
	}
}

// Arith is a binary arithmetic expression. Mixed int/float operands promote
// to float.
type Arith struct {
	Op   ArithOp
	L, R Expr
	kind vector.Kind
}

// NewArith returns l op r.
func NewArith(op ArithOp, l, r Expr) *Arith { return &Arith{Op: op, L: l, R: r} }

// Kind implements Expr.
func (a *Arith) Kind() vector.Kind { return a.kind }

// String implements Expr.
func (a *Arith) String() string { return fmt.Sprintf("(%s %s %s)", a.L, a.Op, a.R) }

// Eval implements Expr. The left operand is evaluated straight into out and
// combined there with the right one.
func (a *Arith) Eval(b *vector.Batch, out *vector.Vector) {
	if a.kind == vector.Int64 {
		start := len(out.I64)
		a.L.Eval(b, out)
		rv, owned := operand(a.R, b)
		arith(a.Op, out.I64[start:], rv.I64)
		release(rv, owned)
		return
	}
	start := len(out.F64)
	evalFloat(a.L, b, out)
	rv, owned := floatOperand(a.R, b)
	arith(a.Op, out.F64[start:], rv.F64)
	release(rv, owned)
}

// arith computes acc[i] op= r[i].
func arith[T int64 | float64](op ArithOp, acc, r []T) {
	r = r[:len(acc)]
	switch op {
	case Add:
		for i := range acc {
			acc[i] += r[i]
		}
	case Sub:
		for i := range acc {
			acc[i] -= r[i]
		}
	case Mul:
		for i := range acc {
			acc[i] *= r[i]
		}
	case Div:
		for i := range acc {
			acc[i] /= r[i]
		}
	}
}

// evalFloat appends the values of numeric e to the Float64 vector out.
func evalFloat(e Expr, b *vector.Batch, out *vector.Vector) {
	if e.Kind() == vector.Float64 {
		e.Eval(b, out)
		return
	}
	iv, owned := operand(e, b)
	for _, v := range iv.I64 {
		out.F64 = append(out.F64, float64(v))
	}
	release(iv, owned)
}

// floatOperand is operand for numeric e, converted to Float64.
func floatOperand(e Expr, b *vector.Batch) (*vector.Vector, bool) {
	if e.Kind() == vector.Float64 {
		return operand(e, b)
	}
	fv := getScratch(vector.Float64)
	evalFloat(e, b, fv)
	return fv, true
}

// Case is CASE WHEN cond THEN a ELSE b END. Then and Else must share a kind.
type Case struct {
	When Expr
	Then Expr
	Else Expr
}

// NewCase returns the conditional expression.
func NewCase(when, then, els Expr) *Case { return &Case{When: when, Then: then, Else: els} }

// Kind implements Expr.
func (c *Case) Kind() vector.Kind { return c.Then.Kind() }

// String implements Expr.
func (c *Case) String() string {
	return fmt.Sprintf("CASE WHEN %s THEN %s ELSE %s END", c.When, c.Then, c.Else)
}

// Eval implements Expr.
func (c *Case) Eval(b *vector.Batch, out *vector.Vector) {
	cond, co := operand(c.When, b)
	tv, to := operand(c.Then, b)
	ev, eo := operand(c.Else, b)
	for i, x := range cond.I64 {
		if x != 0 {
			out.AppendFrom(tv, i)
		} else {
			out.AppendFrom(ev, i)
		}
	}
	release(cond, co)
	release(tv, to)
	release(ev, eo)
}

// Year extracts the calendar year from a date (Int64 day number) expression.
type Year struct{ Arg Expr }

// NewYear returns EXTRACT(YEAR FROM arg).
func NewYear(arg Expr) *Year { return &Year{Arg: arg} }

// Kind implements Expr.
func (y *Year) Kind() vector.Kind { return vector.Int64 }

// String implements Expr.
func (y *Year) String() string { return fmt.Sprintf("YEAR(%s)", y.Arg) }

// Eval implements Expr.
func (y *Year) Eval(b *vector.Batch, out *vector.Vector) {
	start := len(out.I64)
	y.Arg.Eval(b, out)
	ds := out.I64[start:]
	for i, d := range ds {
		ds[i] = vector.DateYear(d)
	}
}

// Substr is SUBSTRING(arg FROM start FOR length) with 1-based start.
type Substr struct {
	Arg    Expr
	Start  int
	Length int
}

// NewSubstr returns the substring expression.
func NewSubstr(arg Expr, start, length int) *Substr {
	return &Substr{Arg: arg, Start: start, Length: length}
}

// Kind implements Expr.
func (s *Substr) Kind() vector.Kind { return vector.String }

// String implements Expr.
func (s *Substr) String() string {
	return fmt.Sprintf("SUBSTRING(%s FROM %d FOR %d)", s.Arg, s.Start, s.Length)
}

// Eval implements Expr.
func (s *Substr) Eval(b *vector.Batch, out *vector.Vector) {
	start := len(out.Str)
	s.Arg.Eval(b, out)
	vs := out.Str[start:]
	for i, v := range vs {
		lo := s.Start - 1
		if lo < 0 {
			lo = 0
		}
		hi := lo + s.Length
		if lo > len(v) {
			lo = len(v)
		}
		if hi > len(v) {
			hi = len(v)
		}
		vs[i] = v[lo:hi]
	}
}

// InList tests membership of Arg in a set of constants of the same kind.
type InList struct {
	Arg    Expr
	Values []*Const
	Negate bool
}

// NewIn returns arg IN (values...).
func NewIn(arg Expr, values ...*Const) *InList { return &InList{Arg: arg, Values: values} }

// NewNotIn returns arg NOT IN (values...).
func NewNotIn(arg Expr, values ...*Const) *InList {
	return &InList{Arg: arg, Values: values, Negate: true}
}

// Kind implements Expr.
func (in *InList) Kind() vector.Kind { return vector.Int64 }

// String implements Expr.
func (in *InList) String() string {
	op := "IN"
	if in.Negate {
		op = "NOT IN"
	}
	return fmt.Sprintf("(%s %s %v)", in.Arg, op, in.Values)
}

// Eval implements Expr.
func (in *InList) Eval(b *vector.Batch, out *vector.Vector) {
	tmp, owned := operand(in.Arg, b)
	n := b.Len()
	for i := 0; i < n; i++ {
		hit := false
		for _, c := range in.Values {
			switch tmp.Kind {
			case vector.Int64:
				hit = tmp.I64[i] == c.I
			case vector.Float64:
				hit = tmp.F64[i] == c.F
			case vector.String:
				hit = tmp.Str[i] == c.S
			}
			if hit {
				break
			}
		}
		out.I64 = append(out.I64, b2i(hit != in.Negate))
	}
	release(tmp, owned)
}

// Between is lo <= arg AND arg <= hi, as a single analyzable node.
func Between(arg Expr, lo, hi Expr) Expr {
	return NewAnd(NewCmp(GE, arg, lo), NewCmp(LE, arg, hi))
}

// NewScratch returns an empty scratch vector of kind k sized for one batch.
func NewScratch(k vector.Kind) *vector.Vector {
	return vector.NewVector(k, vector.BatchSize)
}

// scratchPools hold, per kind, the vectors computed operands are evaluated
// into for the span of one Eval. Morsel workers share one expression tree,
// so scratch cannot live on the nodes.
var scratchPools [vector.String + 1]sync.Pool

func getScratch(k vector.Kind) *vector.Vector {
	if v, _ := scratchPools[k].Get().(*vector.Vector); v != nil {
		return v
	}
	return NewScratch(k)
}

// operand returns the values of e over b: the batch's own vector when e is
// a column reference, else a pooled scratch vector (owned reports which),
// to be handed back through release.
func operand(e Expr, b *vector.Batch) (v *vector.Vector, owned bool) {
	if c, ok := e.(*Col); ok {
		return b.Cols[c.Index], false
	}
	v = getScratch(e.Kind())
	e.Eval(b, v)
	return v, true
}

func release(v *vector.Vector, owned bool) {
	if !owned {
		return
	}
	clear(v.Str)
	v.Reset()
	scratchPools[v.Kind].Put(v)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func nary(op string, args []Expr) string {
	s := "("
	for i, a := range args {
		if i > 0 {
			s += " " + op + " "
		}
		s += a.String()
	}
	return s + ")"
}
