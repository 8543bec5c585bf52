// Command perfbench is the repository's end-to-end and per-layer benchmark.
// It runs one workload against the public Go API, checks every result
// against a serial Plain-scheme reference, and prints its metrics by name
// with their units. The last line of standard output is one JSON object:
// the end-to-end metrics of an untraced run (--trace 0), or the per-layer
// metrics of a traced one (--trace 1), which also runs the workload
// untraced to report the tracing overhead and writes its spans to disk.
//
//	bash perfbench/run.sh --workload tpch-bdcc --seed 1 --seconds 12 --trace 0
//
// Workloads are described in README.md. The exit code is non-zero when any
// operation failed or returned a wrong result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"

	"bdcc/internal/plan"
)

// sf is the TPC-H scale factor of every workload (~60 MB raw).
const sf = 0.05

// setupReps is how many set-ups each run times; setup_s is their median.
const setupReps = 3

// minPasses is the least number of timed query passes of tpch-* and serve.
const minPasses = 11

// workloads maps workload names to their runners.
var workloads = map[string]func(*config) (*report, error){
	"tpch-bdcc":     func(c *config) (*report, error) { return runTPCH(c, plan.BDCC) },
	"tpch-plain":    func(c *config) (*report, error) { return runTPCH(c, plan.Plain) },
	"serve-sharded": runServe,
	"ingest-bdcc":   runIngest,
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: tpch-bdcc, tpch-plain, serve-sharded or ingest-bdcc")
	seed := flag.Int64("seed", 1, "seed of the query orders and the ingest arrival stream")
	seconds := flag.Float64("seconds", 12, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the workload untraced and then traced, and prints per-layer metrics")
	spans := flag.String("spans", ".bench_build/spans", "directory traced runs write their spans to")
	flag.Parse()
	c := &config{workload: *workload, seed: *seed, seconds: *seconds, sf: sf, setupReps: setupReps, minPasses: minPasses}
	res, err := run(c, *trace == 1, *spans)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run runs the workload untraced and, when traced is set, again traced;
// it prints the report lines and returns the result line.
func run(c *config, traced bool, spanDir string) (*result, error) {
	name, seed := c.workload, c.seed
	fn, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if c.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	u, err := fn(c)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	printReport(name, "untraced", u)
	checkExact(name, seed, u)
	out := &result{Attempted: u.attempted, Failed: u.failed, Metrics: map[string]value{}}
	if !traced {
		for _, m := range endToEnd {
			out.Metrics[m.Name] = value{u.e2e[m.Name], m.Unit}
		}
		out.Correct = out.Failed == 0
		return out, nil
	}

	runtime.GC()
	c.tr, c.am = newTracer(), &allocMeter{}
	t, err := fn(c)
	if err != nil {
		return nil, fmt.Errorf("%s traced: %w", name, err)
	}
	spans := c.tr.snapshot()
	if err := checkTree(spans); err != nil {
		return nil, fmt.Errorf("%s: malformed span tree: %w", name, err)
	}
	path, err := writeSpans(spanDir, fmt.Sprintf("%s-seed%d.json", name, seed), spans)
	if err != nil {
		return nil, fmt.Errorf("%s: writing spans: %w", name, err)
	}
	t.layers["trace.spans"] = float64(len(spans))
	t.layers["trace.qps_overhead_pct"] = 100 * (u.e2e["qps"] - t.e2e["qps"]) / u.e2e["qps"]
	t.layers["trace.gmean_overhead_pct"] = 100 * (t.e2e["query_gmean_ms"] - u.e2e["query_gmean_ms"]) / u.e2e["query_gmean_ms"]
	printReport(name, "traced", t)
	checkExact(name, seed, t)
	fmt.Printf("%s spans: %d written to %s\n", name, len(spans), path)
	for _, m := range endToEnd {
		d := t.e2e[m.Name] - u.e2e[m.Name]
		fmt.Printf("%s trace overhead %s %+g %s (traced %g, untraced %g)\n", name, m.Name, d, m.Unit, t.e2e[m.Name], u.e2e[m.Name])
	}
	out.Attempted += t.attempted
	out.Failed += t.failed
	for _, m := range perLayer {
		out.Metrics[m.Name] = value{t.layers[m.Name], m.Unit}
	}
	out.Correct = out.Failed == 0
	return out, nil
}

// printReport prints a run's metrics by name with their units, its
// failures and notes, the per-layer metrics of a traced run, and the
// deterministic counters.
func printReport(name, mode string, r *report) {
	fmt.Printf("== %s (%s) ==\n", name, mode)
	for _, m := range endToEnd {
		fmt.Printf("%s %s %g %s\n", name, m.Name, r.e2e[m.Name], m.Unit)
	}
	for _, m := range ingestOnly {
		if v, ok := r.e2e[m.Name]; ok {
			fmt.Printf("%s %s %g %s\n", name, m.Name, v, m.Unit)
		}
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("%s failed_frac %g (%d of %d operations)\n", name, frac, r.failed, r.attempted)
	for _, e := range r.errs {
		fmt.Printf("%s FAILED %s\n", name, e)
	}
	for _, l := range r.lines {
		fmt.Printf("%s %s\n", name, l)
	}
	if mode == "traced" {
		for _, m := range perLayer {
			fmt.Printf("%s layer %s %g %s\n", name, m.Name, r.layers[m.Name], m.Unit)
		}
	}
	exact, _ := json.Marshal(r.exact)
	fmt.Printf("%s exact %s\n", name, exact)
}
