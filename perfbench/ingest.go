package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"bdcc/internal/iosim"
	"bdcc/internal/plan"
	"bdcc/internal/tpch"
)

const (
	// batchOrders is the size of one arrival batch (plus its lineitems).
	batchOrders = 60
	// mergeEvery is the merge cadence in steps. Merges run synchronously:
	// background merges would race with appends and make the counters
	// unrepeatable.
	mergeEvery = 11
	// ingestMinPasses is the least number of timed ingest passes. Each
	// query runs once per pass, at a seeded position between merges, so
	// one pass leaves each query's latency to a single sample.
	ingestMinPasses = 2
)

// step is one timed ingest step.
type step struct {
	batch  *tpch.DeltaBatch
	q      tpch.QueryDef
	rec    qrec
	merged bool
}

// runIngest is the ingest-bdcc workload: one writer loop on the BDCC
// scheme. Each step appends one seeded batch of 60 orders with their
// lineitems through Ingest.Append and then runs one query; every 11th step
// merges. A pass is 22 steps, one per query in a seeded order. A read-only
// pass warms up; timed passes follow until the run's seconds are spent and
// at least ingestMinPasses ran. The deterministic counters come from the
// first timed pass.
func runIngest(c *config) (*report, error) {
	r := newReport()
	b, err := c.setup(r, plan.BDCC, "plan.ingest.enable", func(b *built) error {
		_, err := b.db.EnableIngest(plan.IngestOptions{})
		return err
	}, nil)
	if err != nil {
		return nil, err
	}
	ing := b.db.Ingest()
	refDB := plan.NewPlainDB(tpch.Schema(), b.data.Tables, iosim.PaperSSD())
	ref, err := reference(refDB)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(c.seed))
	var warm []qrec
	for _, q := range passOrder(rng) {
		rec, err := c.runQuery(b.db, q, 0, 0)
		if err != nil {
			r.fail("warm-up %v", err)
			continue
		}
		warm = append(warm, rec)
	}
	checkRecs(&r.tally, warm, ref)

	gen := tpch.NewDeltaGen(b.data, c.seed)
	mark := len(c.tr.snapshot())
	var steps []step
	var writer time.Duration
	var appendMS, mergeMS []float64
	var appendAlloc, drift float64
	var rows int
	deadline := time.Now().Add(time.Duration(c.seconds * float64(time.Second)))
	var order []tpch.QueryDef
	for pass := 0; pass < ingestMinPasses || time.Now().Before(deadline); pass++ {
		// Odd passes run the previous order reversed, so that over a pair
		// of passes every query meets mirrored positions in the merge
		// cycle, whatever the seed.
		if pass%2 == 0 {
			order = passOrder(rng)
		} else {
			slices.Reverse(order)
		}
		for _, q := range order {
			s := step{batch: gen.Next(batchOrders), q: q}
			trace := c.tr.newTrace()
			root := c.tr.begin("ingest.step", 0, trace)
			start := time.Now()
			a := c.am.start()
			sp := c.tr.begin("plan.ingest.append_orders", root, trace)
			err := ing.Append("orders", s.batch.Orders)
			c.tr.end(sp)
			if err == nil {
				sp = c.tr.begin("plan.ingest.append_lineitem", root, trace)
				err = ing.Append("lineitem", s.batch.Lineitem)
				c.tr.end(sp)
			}
			appendAlloc += c.am.since(a)
			appendMS = append(appendMS, float64(time.Since(start).Nanoseconds())/1e6)
			if err != nil {
				c.tr.end(root)
				r.fail("append: %v", err)
				return nil, fmt.Errorf("append: %w", err)
			}
			r.ok()
			// An append allocates several times the live heap. Collecting
			// its garbage here, inside the step's writer time but outside
			// the query's latency, keeps the query from meeting a
			// collection cycle at a timing-dependent point.
			runtime.GC()
			s.rec, err = c.runQuery(b.db, q, root, trace)
			if err != nil {
				c.tr.end(root)
				r.fail("%v", err)
				return nil, err
			}
			if (len(steps)+1)%mergeEvery == 0 {
				m := time.Now()
				sp = c.tr.begin("plan.ingest.merge", root, trace)
				err = ing.Merge()
				c.tr.end(sp)
				if err != nil {
					c.tr.end(root)
					r.fail("merge: %v", err)
					return nil, fmt.Errorf("merge: %w", err)
				}
				r.ok()
				mergeMS = append(mergeMS, float64(time.Since(m).Nanoseconds())/1e6)
				s.merged = true
			}
			writer += time.Since(start)
			c.tr.end(root)
			rows += s.batch.Orders.Rows() + s.batch.Lineitem.Rows()
			steps = append(steps, s)
			if pass == 0 {
				for _, d := range ing.Stats().Drift {
					drift = max(drift, d.Distance)
				}
			}
		}
		if pass == 0 {
			st := ing.Stats()
			r.layers["plan.ingest.merges"] = float64(st.Merges)
			r.layers["plan.ingest.merged_rows"] = float64(st.MergedRows)
			r.layers["plan.ingest.epoch"] = float64(st.Epoch)
			r.layers["plan.ingest.max_drift"] = drift
			storedStats(r, b.db.Snapshot())
		}
	}

	recs := make([]qrec, len(steps))
	for i, s := range steps {
		recs[i] = s.rec
	}
	latencies(r, latencyMS(recs), writer)
	summarize(r, recs, false, true)
	r.e2e["append_p50_ms"] = median(appendMS)
	t, pct := tail(appendMS)
	r.e2e["append_tail_ms"] = t
	r.note("append_tail_ms: p%.2f of %d samples", pct, len(appendMS))
	r.e2e["ingest_rows_s"] = float64(rows) / writer.Seconds()
	r.note("timed phase: %d steps (%d passes), %d merges, %d rows appended; mb_read, peak_mb, stored_mb and the plan.ingest counters are from the first pass",
		len(steps), len(steps)/len(tpch.Queries), len(mergeMS), rows)
	for _, k := range []string{"plan.ingest.epoch", "plan.ingest.merged_rows"} {
		r.exact[k] = r.layers[k]
	}
	r.layers["plan.ingest.merge_ms"] = mean(mergeMS)
	if c.tr != nil {
		passes := float64(len(steps)) / float64(len(tpch.Queries))
		spans := c.tr.snapshot()[mark:]
		spanLayers(r, spans, recs, passes)
		self := selfByName(spans)
		r.layers["plan.ingest.append_orders_ms"] = self["plan.ingest.append_orders"] / float64(len(steps))
		r.layers["plan.ingest.append_lineitem_ms"] = self["plan.ingest.append_lineitem"] / float64(len(steps))
		r.layers["plan.ingest.alloc_mb"] = appendAlloc / float64(len(steps))
	}

	// Replay the identical stream on the Plain reference, serially, and
	// compare each step's result with the reference queried at that step.
	refIng, err := refDB.EnableIngest(plan.IngestOptions{})
	if err != nil {
		return nil, err
	}
	for i, s := range steps {
		if err := refIng.Append("orders", s.batch.Orders); err != nil {
			return nil, fmt.Errorf("reference append: %w", err)
		}
		if err := refIng.Append("lineitem", s.batch.Lineitem); err != nil {
			return nil, fmt.Errorf("reference append: %w", err)
		}
		res, _, _, err := tpch.RunQuery(refDB, s.q)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", s.q.Name, err)
		}
		r.check(fmt.Sprintf("step %d %s", i+1, s.q.Name), s.rec.res, render(res))
		if s.merged {
			if err := refIng.Merge(); err != nil {
				return nil, fmt.Errorf("reference merge: %w", err)
			}
		}
	}
	return r, nil
}
