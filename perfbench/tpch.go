package main

import (
	"fmt"
	"math/rand"
	"time"

	"bdcc/internal/iosim"
	"bdcc/internal/plan"
	"bdcc/internal/tpch"
)

// runTPCH is the tpch-bdcc and tpch-plain workload: one client runs the 22
// queries serially in a seeded order, pass after pass, on one scheme. One
// pass warms up; timed passes follow until the run's seconds are spent and
// at least minPasses ran (whole passes only, so every query runs equally
// often).
func runTPCH(c *config, scheme plan.Scheme) (*report, error) {
	r := newReport()
	b, err := c.setup(r, scheme, "", nil, nil)
	if err != nil {
		return nil, err
	}
	storedStats(r, b.db)
	ref, err := reference(plan.NewPlainDB(tpch.Schema(), b.data.Tables, iosim.PaperSSD()))
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

	mark := len(c.tr.snapshot())
	var recs []qrec
	start := time.Now()
	deadline := start.Add(time.Duration(c.seconds * float64(time.Second)))
	for pass := 0; pass < c.minPasses || time.Now().Before(deadline); pass++ {
		for _, q := range passOrder(rng) {
			rec, err := c.runQuery(b.db, q, 0, 0)
			if err != nil {
				r.fail("%v", err)
				continue
			}
			recs = append(recs, rec)
		}
	}
	wall := time.Since(start)
	if len(recs) == 0 {
		return nil, fmt.Errorf("no query completed")
	}
	latencies(r, latencyMS(recs), wall)
	summarize(r, recs, true, true)
	passes := float64(len(recs)) / float64(len(tpch.Queries))
	if c.tr != nil {
		spanLayers(r, c.tr.snapshot()[mark:], recs, passes)
	}
	checkRecs(&r.tally, recs, ref)
	return r, nil
}

// checkRecs compares every recorded result with its reference.
func checkRecs(t *tally, recs []qrec, ref map[string][]string) {
	for _, q := range recs {
		t.check(q.name, q.res, ref[q.name])
	}
}
