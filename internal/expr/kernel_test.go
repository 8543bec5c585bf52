package expr

import (
	"fmt"
	"math"
	"testing"

	"bdcc/internal/vector"
)

// kernelBatch holds every ordered pair of a kind's edge values: column "a"
// runs over the values in blocks and column "b" cycles through them, so
// Col–Col comparisons meet each pair once. Each kind has its own pair of
// columns ("ia"/"ib", "fa"/"fb", "sa"/"sb").
func kernelBatch() (*vector.Batch, Schema) {
	ints := []int64{math.MinInt64, -7, -1, 0, 1, 7, math.MaxInt64}
	floats := []float64{math.NaN(), math.Inf(-1), -2.5, math.Copysign(0, -1), 0, 1e-300, 2.5, math.Inf(1)}
	strs := []string{"", "a", "ab", "b", "ba", "\xff"}
	schema := Schema{
		{Name: "ia", Kind: vector.Int64}, {Name: "ib", Kind: vector.Int64},
		{Name: "fa", Kind: vector.Float64}, {Name: "fb", Kind: vector.Float64},
		{Name: "sa", Kind: vector.String}, {Name: "sb", Kind: vector.String},
	}
	b := vector.NewBatch(schema.Kinds())
	n := len(ints) * len(ints)
	n = max(n, len(floats)*len(floats), len(strs)*len(strs))
	for r := 0; r < n; r++ {
		b.Cols[0].I64 = append(b.Cols[0].I64, ints[r/len(ints)%len(ints)])
		b.Cols[1].I64 = append(b.Cols[1].I64, ints[r%len(ints)])
		b.Cols[2].F64 = append(b.Cols[2].F64, floats[r/len(floats)%len(floats)])
		b.Cols[3].F64 = append(b.Cols[3].F64, floats[r%len(floats)])
		b.Cols[4].Str = append(b.Cols[4].Str, strs[r/len(strs)%len(strs)])
		b.Cols[5].Str = append(b.Cols[5].Str, strs[r%len(strs)])
	}
	return b, schema
}

// refEval is the reference evaluator for boolean trees: comparisons
// materialize both operands and decide row by row through Vector.Compare,
// AND folds from all ones and OR from all zeros, NOT is 1-v.
func refEval(e Expr, b *vector.Batch) []int64 {
	n := b.Len()
	out := make([]int64, n)
	switch t := e.(type) {
	case *Cmp:
		lv, rv := NewScratch(t.L.Kind()), NewScratch(t.R.Kind())
		t.L.Eval(b, lv)
		t.R.Eval(b, rv)
		for i := range out {
			c := lv.Compare(i, rv, i)
			out[i] = b2i(map[CmpOp]bool{EQ: c == 0, NE: c != 0, LT: c < 0, LE: c <= 0, GT: c > 0, GE: c >= 0}[t.Op])
		}
	case *And:
		for i := range out {
			out[i] = 1
		}
		for _, a := range t.Args {
			for i, v := range refEval(a, b) {
				out[i] &= v
			}
		}
	case *Or:
		for _, a := range t.Args {
			for i, v := range refEval(a, b) {
				out[i] |= v
			}
		}
	case *Not:
		for i, v := range refEval(t.Arg, b) {
			out[i] = 1 - v
		}
	default:
		v := NewScratch(vector.Int64)
		e.Eval(b, v)
		copy(out, v.I64)
	}
	return out
}

// evalAfter evaluates bound e into a vector already holding prefix and
// checks the prefix survived; it returns the appended values.
func evalAfter(t *testing.T, e Expr, b *vector.Batch, prefix []int64) []int64 {
	t.Helper()
	out := NewScratch(vector.Int64)
	out.I64 = append(out.I64, prefix...)
	e.Eval(b, out)
	if fmt.Sprint(out.I64[:len(prefix)]) != fmt.Sprint(prefix) {
		t.Fatalf("%s overwrote the %d values already in out", e, len(prefix))
	}
	if len(out.I64) != len(prefix)+b.Len() {
		t.Fatalf("%s appended %d values for %d rows", e, len(out.I64)-len(prefix), b.Len())
	}
	return out.I64[len(prefix):]
}

func TestCmpKernelsMatchCompare(t *testing.T) {
	b, schema := kernelBatch()
	consts := map[vector.Kind][]*Const{
		vector.Int64:   {Int(math.MinInt64), Int(-1), Int(0), Int(7), Int(math.MaxInt64)},
		vector.Float64: {Float(math.NaN()), Float(math.Inf(-1)), Float(math.Copysign(0, -1)), Float(0), Float(2.5), Float(math.Inf(1))},
		vector.String:  {Str(""), Str("a"), Str("ba"), Str("\xff")},
	}
	cols := map[vector.Kind][2]string{vector.Int64: {"ia", "ib"}, vector.Float64: {"fa", "fb"}, vector.String: {"sa", "sb"}}
	// computed wraps a column so the comparison sees a non-column operand
	// and takes the scratch path.
	computed := func(k vector.Kind, name string) Expr {
		switch k {
		case vector.Int64:
			return NewArith(Add, C(name), Int(0))
		case vector.Float64:
			return NewArith(Mul, C(name), Float(1))
		}
		return NewSubstr(C(name), 1, 8)
	}
	for k, kc := range consts {
		for op := EQ; op <= GE; op++ {
			shapes := [][2]Expr{
				{C(cols[k][0]), C(cols[k][1])},
				{C(cols[k][0]), computed(k, cols[k][1])},
				{computed(k, cols[k][0]), C(cols[k][1])},
			}
			for _, c := range kc {
				shapes = append(shapes,
					[2]Expr{C(cols[k][0]), c},
					[2]Expr{c, C(cols[k][1])},
					[2]Expr{computed(k, cols[k][0]), c},
					[2]Expr{c, c})
			}
			for _, s := range shapes {
				e := NewCmp(op, s[0], s[1])
				if err := Bind(e, schema); err != nil {
					t.Fatal(err)
				}
				want := refEval(e, b)
				got := evalAfter(t, e, b, []int64{5, -3})
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%s (%s):\n got %v\nwant %v", e, k, got, want)
				}
			}
		}
	}
}

func TestNestedBooleansWithNonEmptyOut(t *testing.T) {
	b, schema := kernelBatch()
	cases := []Expr{
		NewAnd(NewCmp(GE, C("ia"), Int(0)), NewCmp(EQ, C("fa"), C("fb")), NewCmp(LT, C("sa"), Str("b"))),
		NewOr(NewCmp(EQ, C("fa"), Float(math.NaN())), NewNot(NewCmp(LE, C("ib"), C("ia")))),
		NewAnd(NewOr(NewCmp(GT, Str("ab"), C("sb")), NewNot(NewAnd(NewCmp(NE, C("fb"), Float(0)), NewCmp(GE, C("ia"), C("ib"))))),
			NewNot(NewCmp(EQ, C("sa"), C("sb")))),
		NewCmp(GT, NewArith(Mul, C("ia"), Float(0.5)), C("fb")), // mixed kinds promote to float
		NewAnd(NewCmp(LT, C("ia"), C("ib"))),
		NewOr(),
		NewAnd(),
		// Non-0/1 arguments fold bitwise: AND starts from all ones.
		NewAnd(NewArith(Add, C("ib"), Int(2)), NewNot(NewCmp(EQ, C("ia"), Int(0)))),
	}
	for _, e := range cases {
		if err := Bind(e, schema); err != nil {
			t.Fatal(err)
		}
		want := refEval(e, b)
		for _, prefix := range [][]int64{nil, {9}, make([]int64, vector.BatchSize)} {
			if got := evalAfter(t, e, b, prefix); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s after %d values:\n got %v\nwant %v", e, len(prefix), got, want)
			}
		}
	}
}

// filterBatch is a 1024-row batch with an int, a float and a string column.
func filterBatch() (*vector.Batch, Schema) {
	schema := Schema{{Name: "q", Kind: vector.Int64}, {Name: "d", Kind: vector.Float64}, {Name: "m", Kind: vector.String}}
	b := vector.NewBatch(schema.Kinds())
	modes := []string{"AIR", "MAIL", "RAIL", "SHIP", "TRUCK"}
	for i := 0; i < vector.BatchSize; i++ {
		b.Cols[0].I64 = append(b.Cols[0].I64, int64(i%50))
		b.Cols[1].F64 = append(b.Cols[1].F64, float64(i%11)/100)
		b.Cols[2].Str = append(b.Cols[2].Str, modes[i%len(modes)])
	}
	return b, schema
}

func TestPredicateKernelsDoNotAllocate(t *testing.T) {
	b, schema := filterBatch()
	for _, e := range []Expr{
		NewCmp(LT, C("q"), Int(24)),
		NewAnd(NewCmp(LT, C("q"), Int(24)), NewCmp(GE, C("d"), Float(0.05)), NewCmp(LE, C("d"), Float(0.07))),
	} {
		if err := Bind(e, schema); err != nil {
			t.Fatal(err)
		}
		out := NewScratch(vector.Int64)
		if n := testing.AllocsPerRun(50, func() {
			out.Reset()
			e.Eval(b, out)
		}); n != 0 {
			t.Errorf("%s allocates %.1f times per 1024-row batch", e, n)
		}
	}
}

var sinkVec *vector.Vector

// BenchmarkExprFilter measures predicate evaluation per 1024-row batch: a
// Q6-style conjunction of column-vs-constant comparisons, an IN list, and a
// comparison against a computed operand (the pooled-scratch path).
func BenchmarkExprFilter(b *testing.B) {
	batch, schema := filterBatch()
	cases := []struct {
		name string
		e    Expr
	}{
		{"and-cmp", NewAnd(NewCmp(LT, C("q"), Int(24)), Between(C("d"), Float(0.05), Float(0.07)))},
		{"in-list", NewIn(C("m"), Str("MAIL"), Str("SHIP"))},
		{"computed", NewCmp(GT, NewArith(Mul, C("q"), C("d")), Float(0.5))},
	}
	for _, c := range cases {
		if err := Bind(c.e, schema); err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			out := NewScratch(vector.Int64)
			for b.Loop() {
				out.Reset()
				c.e.Eval(batch, out)
			}
			sinkVec = out
		})
	}
}
