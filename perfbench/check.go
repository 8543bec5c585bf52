package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"bdcc/internal/engine"
)

// render returns a result as sorted row strings. Every TPC-H query ends in
// an ORDER BY, but ties may order differently across schemes, so the
// comparison is order-insensitive (the rule of the repository's
// cross-scheme equivalence test).
func render(res *engine.Result) []string {
	rows := make([]string, res.Rows())
	for i := range rows {
		rows[i] = fmt.Sprint(res.Row(i))
	}
	sort.Strings(rows)
	return rows
}

// sameRows compares a rendered result with its reference and describes
// the first difference; "" means equal.
func sameRows(got, ref []string) string {
	if len(got) != len(ref) {
		return fmt.Sprintf("%d rows, reference has %d", len(got), len(ref))
	}
	for i := range got {
		if !rowEqual(got[i], ref[i]) {
			return fmt.Sprintf("row %d = %s, reference has %s", i, got[i], ref[i])
		}
	}
	return ""
}

// rowEqual compares rendered rows field by field; floats compare with a 1e-6
// relative tolerance because summation order differs across schemes.
func rowEqual(a, b string) bool {
	if a == b {
		return true
	}
	fa := strings.Fields(strings.Trim(a, "[]"))
	fb := strings.Fields(strings.Trim(b, "[]"))
	if len(fa) != len(fb) {
		return false
	}
	for i := range fa {
		if fa[i] == fb[i] {
			continue
		}
		x, errX := strconv.ParseFloat(fa[i], 64)
		y, errY := strconv.ParseFloat(fb[i], 64)
		if errX != nil || errY != nil {
			return false
		}
		if math.Abs(x-y) > 1e-6*math.Max(1, math.Max(math.Abs(x), math.Abs(y))) {
			return false
		}
	}
	return true
}

// tally counts operations and failures; failures are kept for the report.
type tally struct {
	attempted int
	failed    int
	errs      []string
}

func (t *tally) ok() { t.attempted++ }

func (t *tally) fail(format string, args ...any) {
	t.attempted++
	t.failed++
	if len(t.errs) < 20 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

// check compares one result with its reference and counts the outcome.
func (t *tally) check(what string, res *engine.Result, ref []string) {
	if d := sameRows(render(res), ref); d != "" {
		t.fail("%s: wrong result: %s", what, d)
		return
	}
	t.ok()
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.errs = append(t.errs, o.errs...)
}
