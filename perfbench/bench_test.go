package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"bdcc/internal/iosim"
	"bdcc/internal/plan"
	"bdcc/internal/tpch"
)

// testSF keeps the workloads' own tests to a few seconds each.
const testSF = 0.005

// tiny returns a one-pass configuration of a workload at testSF.
func tiny(workload string) *config {
	return &config{workload: workload, seed: 7, seconds: 1e-3, sf: testSF, setupReps: 1, minPasses: 1}
}

func TestReferenceRejectsPerturbedResult(t *testing.T) {
	db := plan.NewPlainDB(tpch.Schema(), tpch.Generate(testSF).Tables, iosim.PaperSSD())
	q := tpch.Queries[0] // Q01: float aggregates over a handful of groups
	res, _, _, err := tpch.RunQuery(db, q)
	if err != nil {
		t.Fatal(err)
	}
	ref := render(res)
	var tl tally
	tl.check("unchanged", res, ref)
	if tl.failed != 0 {
		t.Fatalf("identical result rejected: %v", tl.errs)
	}

	col := -1
	for i, c := range res.Cols {
		if len(c.F64) > 0 {
			col = i
			break
		}
	}
	if col < 0 {
		t.Fatal("Q01 has no float column")
	}
	f := res.Cols[col].F64
	orig := f[0]
	f[0] = orig * (1 + 1e-9) // within the 1e-6 relative tolerance
	tl.check("summation noise", res, ref)
	if tl.failed != 0 {
		t.Fatalf("result within tolerance rejected: %v", tl.errs)
	}
	f[0] = orig*1.001 + 1
	tl.check("perturbed", res, ref)
	if tl.failed != 1 {
		t.Fatalf("perturbed result accepted")
	}
	f[0] = orig
	if d := sameRows(render(res)[1:], ref); d == "" {
		t.Fatal("result missing a row accepted")
	}
	if tl.attempted != 3 {
		t.Fatalf("attempted = %d, want 3", tl.attempted)
	}
}

func TestCheckTree(t *testing.T) {
	good := []span{
		{ID: 1, Trace: 1, Name: "query", Start: 0, End: 100},
		{ID: 2, Parent: 1, Trace: 1, Name: "tpch.build", Start: 5, End: 20},
		{ID: 3, Parent: 1, Trace: 1, Name: "plan.plan", Start: 20, End: 50},
		{ID: 4, Parent: 1, Trace: 1, Name: "engine.run", Start: 50, End: 99},
		{ID: 5, Trace: 2, Name: "query", Start: 100, End: 130},
	}
	if err := checkTree(good); err != nil {
		t.Fatal(err)
	}
	if got := selfByName(good)["query"]; math.Abs(got-36e-6) > 1e-12 {
		t.Fatalf("query self time = %v ms, want 36e-6", got)
	}
	bad := map[string]func([]span){
		"child outside parent": func(s []span) { s[3].End = 101 },
		"open span":            func(s []span) { s[1].End = -1 },
		"overlapping siblings": func(s []span) { s[2].Start = 10 },
		"trace mismatch":       func(s []span) { s[2].Trace = 2 },
		"unknown parent":       func(s []span) { s[2].Parent = 9 },
		"parent after child":   func(s []span) { s[1].Parent = 3 },
	}
	for name, mutate := range bad {
		s := append([]span(nil), good...)
		mutate(s)
		if err := checkTree(s); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// benchmarkJSON reads the repository's BENCHMARK.json.
func benchmarkJSON(t *testing.T) (workloads []string, e2e, layers map[string]string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	e2e, layers = map[string]string{}, map[string]string{}
	for _, w := range b.Workloads {
		workloads = append(workloads, w.Name)
	}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		layers[m.Name] = m.Unit
	}
	return workloads, e2e, layers
}

// TestMetricsMatchBenchmarkJSON runs every workload once, untraced and
// traced, at a small scale, and checks that each printed metric is listed
// in BENCHMARK.json with its unit and that every listed one is printed. The
// traced run also checks its span tree.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	names, e2e, layers := benchmarkJSON(t)
	var known []string
	for w := range workloads {
		known = append(known, w)
	}
	sort.Strings(known)
	sort.Strings(names)
	if len(known) != len(names) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, known)
	}
	for i := range names {
		if names[i] != known[i] {
			t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, known)
		}
	}
	for _, w := range names {
		t.Run(w, func(t *testing.T) {
			res, err := run(tiny(w), true, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
			}
			same(t, "per_layer", res.Metrics, layers)
			c := tiny(w)
			res, err = run(c, false, "")
			if err != nil {
				t.Fatal(err)
			}
			same(t, "end_to_end", res.Metrics, e2e)
			for name, v := range res.Metrics {
				if v.Value <= 0 {
					t.Errorf("end-to-end %s = %v, want > 0", name, v.Value)
				}
			}
		})
	}
}

func same(t *testing.T, list string, got map[string]value, want map[string]string) {
	t.Helper()
	for name, v := range got {
		if unit, ok := want[name]; !ok || unit != v.Unit {
			t.Errorf("printed %s (%s) is not in BENCHMARK.json %s with that unit", name, v.Unit, list)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("BENCHMARK.json %s lists %s, which is not printed", list, name)
		}
	}
}
