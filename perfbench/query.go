package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"bdcc/internal/core"
	"bdcc/internal/engine"
	"bdcc/internal/iosim"
	"bdcc/internal/plan"
	"bdcc/internal/tpch"
)

// config is one run of one workload.
type config struct {
	workload  string
	seed      int64
	seconds   float64
	sf        float64
	setupReps int
	// minPasses is the least number of timed passes (all clients
	// together). With at least 11, the ten samples beyond query_tail_ms
	// are runs of one query, whatever the run's pass count.
	minPasses int
	tr        *tracer     // nil: untraced
	am        *allocMeter // nil: untraced
}

// report is what one workload run measured.
type report struct {
	tally
	e2e    map[string]float64
	layers map[string]float64
	exact  map[string]float64
	lines  []string
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layers: map[string]float64{}, exact: map[string]float64{}}
}

func (r *report) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// built is one set-up: the generated dataset and the scheme's database.
type built struct {
	data *tpch.Dataset
	db   *plan.DB
	// ms per set-up phase, keyed by span name.
	phases map[string]float64
	total  time.Duration
}

// phaseLayer maps set-up span names to their per-layer metric.
var phaseLayer = map[string]string{
	"tpch.generate":    "tpch.generate_ms",
	"storage.compress": "storage.compress_ms",
	"plan.materialize": "plan.materialize_ms",
}

// setupOnce generates the dataset, compresses it and materializes the
// scheme, then runs the workload's extra set-up step (daemon start or
// EnableIngest), timing and spanning each phase.
func (c *config) setupOnce(scheme plan.Scheme, extraName string, extra func(*built) error) (*built, error) {
	b := &built{phases: map[string]float64{}}
	trace := c.tr.newTrace()
	root := c.tr.begin("setup", 0, trace)
	start := time.Now()
	phase := func(name string, fn func() error) error {
		sp := c.tr.begin(name, root, trace)
		t0 := time.Now()
		err := fn()
		b.phases[name] = float64(time.Since(t0).Nanoseconds()) / 1e6
		c.tr.end(sp)
		return err
	}
	err := phase("tpch.generate", func() error {
		b.data = tpch.Generate(c.sf)
		return nil
	})
	if err == nil {
		err = phase("storage.compress", func() error {
			for _, t := range b.data.Tables {
				t.Compress()
			}
			return nil
		})
	}
	if err == nil {
		err = phase("plan.materialize", func() error {
			var err error
			b.db, err = materialize(b.data, scheme)
			return err
		})
	}
	if err == nil && extra != nil {
		err = phase(extraName, func() error { return extra(b) })
	}
	b.total = time.Since(start)
	c.tr.end(root)
	return b, err
}

func materialize(data *tpch.Dataset, scheme plan.Scheme) (*plan.DB, error) {
	if scheme == plan.Plain {
		return plan.NewPlainDB(tpch.Schema(), data.Tables, iosim.PaperSSD()), nil
	}
	return plan.NewBDCCDB(tpch.Schema(), data.Tables, iosim.PaperSSD(), core.BuildOptions{})
}

// setup runs setupReps set-ups and keeps the last. teardown releases a
// set-up that is replaced (a daemon must stop before the next starts).
// It records setup_s (the median), setup_heap_mb and the phase medians.
func (c *config) setup(r *report, scheme plan.Scheme, extraName string, extra func(*built) error, teardown func(*built)) (*built, error) {
	var b *built
	var totals []float64
	phases := map[string][]float64{}
	for i := 0; i < c.setupReps; i++ {
		if b != nil && teardown != nil {
			teardown(b)
		}
		b = nil
		runtime.GC()
		var err error
		b, err = c.setupOnce(scheme, extraName, extra)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		totals = append(totals, b.total.Seconds())
		for name, ms := range b.phases {
			phases[name] = append(phases[name], ms)
		}
	}
	r.e2e["setup_s"] = median(totals)
	for name, layer := range phaseLayer {
		r.layers[layer] = median(phases[name])
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.e2e["setup_heap_mb"] = float64(ms.HeapAlloc) / mb
	r.note("setup_s: median of %d set-ups %v", len(totals), totals)
	return b, nil
}

// reference runs the 22 queries serially on the Plain scheme and renders
// their results: the oracle every measured result is compared with.
func reference(db *plan.DB) (map[string][]string, error) {
	out := make(map[string][]string, len(tpch.Queries))
	for _, q := range tpch.Queries {
		res, _, _, err := tpch.RunQuery(db, q)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", q.Name, err)
		}
		out[q.Name] = render(res)
	}
	return out, nil
}

// qrec is one executed query.
type qrec struct {
	name      string
	latency   time.Duration
	io        iosim.Stats
	peak      int64
	decisions int
	deltaRows int64
	planAlloc float64 // MB, traced runs only
	execAlloc float64 // MB, traced runs only
	res       *engine.Result
}

// runQuery executes one query along the seams of tpch.RunQueryOpts:
// NewEnvOpts pins the snapshot, QueryDef.Build builds the logical plan
// (running any scalar subqueries and views), Planner.Plan lowers it and
// engine.Run executes it. parent/trace place the query span under an
// enclosing one; parent 0 starts a new trace.
func (c *config) runQuery(db *plan.DB, q tpch.QueryDef, parent, trace int) (qrec, error) {
	if parent == 0 {
		trace = c.tr.newTrace()
	}
	rec := qrec{name: q.Name}
	root := c.tr.begin("query", parent, trace)
	defer c.tr.end(root)
	start := time.Now()
	env := tpch.NewEnvOpts(db, tpch.RunOptions{})
	defer env.Close()
	sp := c.tr.begin("tpch.build", root, trace)
	node, err := q.Build(env)
	c.tr.end(sp)
	if err != nil {
		return rec, fmt.Errorf("%s build: %w", q.Name, err)
	}
	a := c.am.start()
	sp = c.tr.begin("plan.plan", root, trace)
	p := plan.NewPlanner(env.DB, env.Ctx)
	op, err := p.Plan(node)
	c.tr.end(sp)
	rec.planAlloc = c.am.since(a)
	if err != nil {
		return rec, fmt.Errorf("%s plan: %w", q.Name, err)
	}
	a = c.am.start()
	sp = c.tr.begin("engine.run", root, trace)
	res, err := engine.Run(env.Ctx, op)
	c.tr.end(sp)
	rec.execAlloc = c.am.since(a)
	if err != nil {
		return rec, fmt.Errorf("%s run: %w", q.Name, err)
	}
	rec.latency = time.Since(start)
	rec.io = env.Ctx.Acct.Stats()
	rec.peak = env.Ctx.Mem.Peak()
	rec.decisions = len(env.Explain) + len(p.Log)
	rec.deltaRows = env.DB.PendingDeltaRows()
	rec.res = res
	return rec, nil
}

// passOrder returns the 22 queries in an order drawn from rng.
func passOrder(rng *rand.Rand) []tpch.QueryDef {
	qs := make([]tpch.QueryDef, len(tpch.Queries))
	for i, j := range rng.Perm(len(tpch.Queries)) {
		qs[i] = tpch.Queries[j]
	}
	return qs
}

// lat is one measured query latency in ms.
type lat struct {
	name string
	ms   float64
}

// latencies records qps, query_gmean_ms and query_tail_ms from the timed
// phase's query latencies; wall is the timed phase's duration.
// query_gmean_ms is the geometric mean over the queries of each query's
// median latency, the summary TPC-H's power test uses. The 22 queries'
// latencies form separate clusters with gaps between them, so any median
// across queries is set by the one or two queries nearest the middle and
// jumps with them; the geometric mean weighs every query alike.
func latencies(r *report, lats []lat, wall time.Duration) {
	all := make([]float64, len(lats))
	byName := map[string][]float64{}
	for i, l := range lats {
		all[i] = l.ms
		byName[l.name] = append(byName[l.name], l.ms)
	}
	var meds []float64
	names := make([]string, 0, len(byName))
	for name, xs := range byName {
		meds = append(meds, median(xs))
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return median(byName[names[i]]) > median(byName[names[j]]) })
	var each []string
	for _, name := range names {
		each = append(each, fmt.Sprintf("%s %.1f", name, median(byName[name])))
	}
	r.note("median ms per query, slowest first: %s", strings.Join(each, ", "))
	r.e2e["qps"] = float64(len(lats)) / wall.Seconds()
	r.e2e["query_gmean_ms"] = gmean(meds)
	r.note("query_p50_ms %g ms: median of the per-query medians, reported but not bounded (see README.md)", median(meds))
	t, pct := tail(all)
	r.e2e["query_tail_ms"] = t
	r.note("query_tail_ms: p%.2f of %d samples", pct, len(all))
}

func latencyMS(recs []qrec) []lat {
	out := make([]lat, len(recs))
	for i, q := range recs {
		out[i] = lat{q.name, float64(q.latency.Nanoseconds()) / 1e6}
	}
	return out
}

// summarize derives cold_s, peak_mb and the deterministic counters from the
// timed records. The counters are summed over the first timed run of each
// query; with repeat set, every later run must reproduce that query's
// counters, and a difference is flagged. exactPeak says whether operator
// memory peaks are deterministic: they are not when sharded units return
// in a racing order, and peak_mb is then the mean over every timed run.
func summarize(r *report, recs []qrec, repeat, exactPeak bool) {
	cold := map[string][]float64{}
	first := map[string]qrec{}
	var order []string
	for _, q := range recs {
		cold[q.name] = append(cold[q.name], q.io.ColdTime(q.latency).Seconds())
		f, seen := first[q.name]
		if !seen {
			first[q.name] = q
			order = append(order, q.name)
			continue
		}
		if repeat && (f.io.Bytes != q.io.Bytes || f.io.Runs != q.io.Runs || f.io.Pages != q.io.Pages || (exactPeak && f.peak != q.peak) || f.decisions != q.decisions) {
			r.note("exact-repeat: FLAG %s differs between passes of this run (bytes %d/%d, runs %d/%d, pages %d/%d, peak %d/%d, decisions %d/%d)",
				q.name, f.io.Bytes, q.io.Bytes, f.io.Runs, q.io.Runs, f.io.Pages, q.io.Pages, f.peak, q.peak, f.decisions, q.decisions)
		}
	}
	// Counters are summed as integers, so that the totals do not depend on
	// the order the seed ran the queries in.
	var coldS float64
	var bytes, saved, runs, pages, decisions, delta, peaks int64
	var dev time.Duration
	for _, name := range order {
		f := first[name]
		coldS += median(cold[name])
		bytes += f.io.Bytes
		saved += f.io.Saved
		dev += f.io.Time
		runs += f.io.Runs
		pages += f.io.Pages
		decisions += int64(f.decisions)
		delta += f.deltaRows
		peaks += f.peak
	}
	n := float64(len(order))
	peakMean := float64(peaks) / n
	if !exactPeak {
		peaks = 0
		for _, q := range recs {
			peaks += q.peak
		}
		peakMean = float64(peaks) / float64(len(recs))
	}
	r.e2e["cold_s"] = coldS
	r.e2e["mb_read"] = float64(bytes) / mb
	r.e2e["peak_mb"] = peakMean / mb
	r.layers["storage.read_runs"] = float64(runs)
	r.layers["storage.read_pages"] = float64(pages)
	r.layers["storage.device_ms"] = float64(dev.Nanoseconds()) / 1e6
	r.layers["storage.saved_mb"] = float64(saved) / mb
	r.layers["plan.decisions"] = float64(decisions)
	r.layers["plan.ingest.delta_rows"] = float64(delta) / n
	r.exact["mb_read"] = r.e2e["mb_read"]
	if exactPeak {
		r.exact["peak_mb"] = r.e2e["peak_mb"]
	}
	for _, k := range []string{"storage.read_runs", "storage.read_pages", "storage.device_ms", "plan.decisions"} {
		r.exact[k] = r.layers[k]
	}
	r.note("cold_s: sum over the 22 queries of each one's median cold time over %d timed queries; mb_read: first timed run of each query", len(recs))
}

// storedStats records stored_mb and the compression layer counters.
func storedStats(r *report, db *plan.DB) {
	cs := db.CompressionStats()
	r.e2e["stored_mb"] = float64(cs.EncodedBytes) / mb
	r.exact["stored_mb"] = r.e2e["stored_mb"]
	r.layers["storage.raw_mb"] = float64(cs.RawBytes) / mb
	r.layers["storage.raw_chunks"] = float64(cs.RawChunks)
	r.layers["storage.rle_chunks"] = float64(cs.RLEChunks)
	r.layers["storage.dict_chunks"] = float64(cs.DictChunks)
	r.layers["storage.for_chunks"] = float64(cs.FORChunks)
}

// spanLayers turns the self time of the timed phase's spans into per-pass
// per-layer metrics, and the alloc meters' readings into per-pass MB.
func spanLayers(r *report, spans []span, recs []qrec, passes float64) {
	self := selfByName(spans)
	r.layers["tpch.build_ms"] = self["tpch.build"] / passes
	r.layers["plan.plan_ms"] = self["plan.plan"] / passes
	r.layers["engine.exec_ms"] = self["engine.run"] / passes
	var pa, ea float64
	for _, q := range recs {
		pa += q.planAlloc
		ea += q.execAlloc
	}
	r.layers["plan.alloc_mb"] = pa / passes
	r.layers["engine.alloc_mb"] = ea / passes
}
