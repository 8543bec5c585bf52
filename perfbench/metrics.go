package main

import (
	"math"
	"sort"
)

// metric names one reported quantity and its unit. The lists below are the
// benchmark's contract: BENCHMARK.json names exactly these, and the test in
// bench_test.go (TestMetricsMatchBenchmarkJSON) keeps the two in step.
type metric struct {
	Name string
	Unit string
}

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run of every workload. The deterministic ones (mb_read,
// peak_mb, stored_mb) must repeat exactly; see exactCounters.
var endToEnd = []metric{
	{"setup_s", "s"},         // median over setupReps set-ups in the run
	{"setup_heap_mb", "MB"},  // Go heap in use after set-up and a GC
	{"qps", "1/s"},           // queries completed per second of the timed phase
	{"query_gmean_ms", "ms"}, // geometric mean of the queries' median latencies
	{"query_tail_ms", "ms"},  // highest percentile with ten samples beyond it
	{"cold_s", "s"},          // modeled cold time of one pass (paper, Figure 2)
	{"mb_read", "MB"},        // device MB read by one pass
	{"peak_mb", "MB"},        // mean per-query operator memory peak (Figure 3)
	{"stored_mb", "MB"},      // encoded bytes of the scheme's tables
}

// ingestOnly are end-to-end metrics of the write path. Only the ingest
// workload has them, so they are printed in its report lines and kept out
// of the JSON result, which must carry the same names on every workload.
var ingestOnly = []metric{
	{"append_p50_ms", "ms"},
	{"append_tail_ms", "ms"},
	{"ingest_rows_s", "1/s"},
}

// perLayer are the metrics of single layers, printed by traced runs. A
// layer a workload does not reach reports 0. "_ms" metrics of the query
// path are summed over one pass of the 22 queries; the plan.ingest ones are
// per call.
var perLayer = []metric{
	{"tpch.generate_ms", "ms"},
	{"storage.compress_ms", "ms"},
	{"plan.materialize_ms", "ms"},
	{"tpch.build_ms", "ms"},
	{"plan.plan_ms", "ms"},
	{"plan.alloc_mb", "MB"},
	{"plan.decisions", "count"},
	{"engine.exec_ms", "ms"},
	{"engine.alloc_mb", "MB"},
	{"storage.read_runs", "count"},
	{"storage.read_pages", "count"},
	{"storage.device_ms", "ms"},
	{"storage.saved_mb", "MB"},
	{"storage.raw_mb", "MB"},
	{"storage.raw_chunks", "count"},
	{"storage.rle_chunks", "count"},
	{"storage.dict_chunks", "count"},
	{"storage.for_chunks", "count"},
	{"serve.handle_ms", "ms"},
	{"serve.overhead_ms", "ms"},
	{"serve.queued", "count"},
	{"serve.rejected", "count"},
	{"plan.cache_hits", "count"},
	{"plan.cache_misses", "count"},
	{"shard.net_msgs", "count"},
	{"shard.net_mb", "MB"},
	{"shard.net_ms", "ms"},
	{"shard.units", "count"},
	{"shard.unit_mb", "MB"},
	{"shard.unit_skew", "ratio"},
	{"shard.retries", "count"},
	{"plan.ingest.append_orders_ms", "ms"},
	{"plan.ingest.append_lineitem_ms", "ms"},
	{"plan.ingest.alloc_mb", "MB"},
	{"plan.ingest.merge_ms", "ms"},
	{"plan.ingest.merges", "count"},
	{"plan.ingest.merged_rows", "count"},
	{"plan.ingest.epoch", "count"},
	{"plan.ingest.max_drift", "ratio"},
	{"plan.ingest.delta_rows", "count"},
	{"trace.spans", "count"},
	{"trace.qps_overhead_pct", "%"},
	{"trace.gmean_overhead_pct", "%"},
}

// exactCounters must read the same in every run of the same code and seed;
// on tpch-* and serve they are also seed-independent. Each run compares
// them with baseline.json and flags a difference.
var exactCounters = []string{
	"mb_read", "peak_mb", "stored_mb",
	"storage.read_runs", "storage.read_pages", "storage.device_ms",
	"plan.decisions",
	"shard.net_msgs", "shard.units",
	"plan.ingest.epoch", "plan.ingest.merged_rows",
}

const mb = 1 << 20

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest-ranked sample with at least ten samples beyond
// it, and the percentile that sample sits at. With ten or fewer samples no
// sample qualifies; the maximum is returned at percentile 100.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := sortedCopy(xs)
	if n <= 10 {
		return s[n-1], 100
	}
	k := n - 11
	return s[k], 100 * float64(k+1) / float64(n)
}

// gmean returns the geometric mean of xs, which must be positive; 0 for
// none.
func gmean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += math.Log(x)
	}
	return math.Exp(t / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// sameFloat reports whether two counters agree to the last printed digit.
func sameFloat(a, b float64) bool {
	return a == b || math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}
