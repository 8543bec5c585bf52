package plan_test

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"bdcc/internal/plan"
	"bdcc/internal/tpch"
)

// The hop-key → dimension-bin index is an artifact of one immutable
// database version: every planner over the version shares its maps, each
// built once, and a new ingest epoch starts a fresh index while snapshots
// pinned earlier keep theirs.

// runAll runs every TPC-H query on db and returns each one's rows,
// rendered and sorted.
func runAll(t *testing.T, db *plan.DB) map[string][]string {
	t.Helper()
	out := make(map[string][]string, len(tpch.Queries))
	for _, q := range tpch.Queries {
		res, _, _, err := tpch.RunQuery(db, q)
		if err != nil {
			t.Fatalf("%s under %s: %v", q.Name, db.Scheme, err)
		}
		rows := make([]string, res.Rows())
		for i := range rows {
			rows[i] = fmt.Sprint(res.Row(i))
		}
		sort.Strings(rows)
		out[q.Name] = rows
	}
	return out
}

// sameRows compares rendered rows field by field, floats within a relative
// 1e-6 (summation order differs between schemes).
func sameRows(a, b string) bool {
	fa, fb := strings.Fields(strings.Trim(a, "[]")), strings.Fields(strings.Trim(b, "[]"))
	if len(fa) != len(fb) {
		return false
	}
	for i := range fa {
		if fa[i] == fb[i] {
			continue
		}
		x, errX := strconv.ParseFloat(fa[i], 64)
		y, errY := strconv.ParseFloat(fb[i], 64)
		if errX != nil || errY != nil || math.Abs(x-y) > 1e-6*math.Max(1, math.Max(math.Abs(x), math.Abs(y))) {
			return false
		}
	}
	return true
}

func matchPlain(t *testing.T, label string, bdcc, plain *plan.DB) {
	t.Helper()
	got, want := runAll(t, bdcc), runAll(t, plain)
	for q, w := range want {
		g := got[q]
		if len(g) != len(w) {
			t.Fatalf("%s %s: bdcc returns %d rows, plain %d", q, label, len(g), len(w))
		}
		for i := range w {
			if !sameRows(g[i], w[i]) {
				t.Fatalf("%s %s: row %d = %s, plain has %s", q, label, i, g[i], w[i])
			}
		}
	}
}

func TestBinIndexBuiltOncePerVersion(t *testing.T) {
	b, err := tpch.NewBenchmarkCompressed(0.005, false, plan.BDCC)
	if err != nil {
		t.Fatal(err)
	}
	db := b.DBs[plan.BDCC]
	// Concurrent planners meet every map's first request together.
	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, q := range tpch.Queries {
				if _, _, _, err := tpch.RunQuery(db, q); err != nil {
					t.Errorf("%s: %v", q.Name, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	keys := plan.BinIndexKeys(db)
	if len(keys) == 0 {
		t.Fatal("no query built a value→bin map")
	}
	if got := plan.BinIndexBuilds(db); got != int64(len(keys)) {
		t.Fatalf("3 concurrent passes built %d maps for %d (dimension, foreign key) pairs %v", got, len(keys), keys)
	}
	runAll(t, db)
	if got := plan.BinIndexBuilds(db); got != int64(len(keys)) {
		t.Fatalf("a warm pass rebuilt maps: %d builds for %d pairs", got, len(keys))
	}
}

func TestBinIndexFollowsIngestEpochs(t *testing.T) {
	b, err := tpch.NewBenchmarkCompressed(0.005, false, plan.Plain, plan.BDCC)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.EnableIngest(0, 0); err != nil {
		t.Fatal(err)
	}
	bdcc, plain := b.DBs[plan.BDCC], b.DBs[plan.Plain]
	// lineitem's nation use reaches customer over orders: the map is keyed
	// by order key, so new orders must show up in it.
	const key = "d_nation|fk_l_o"
	old, oldPlain := bdcc.Snapshot(), plain.Snapshot()
	matchPlain(t, "before the append", old, oldPlain)
	oldMap := plan.BinIndexMap(old, key)
	if oldMap == nil {
		t.Fatalf("no query built %s; built %v", key, plan.BinIndexKeys(old))
	}
	oldBuilds, oldLen, oldEpoch := plan.BinIndexBuilds(old), len(oldMap), old.Epoch()

	batch := tpch.NewDeltaGen(b.Data, 7).Next(40)
	if err := b.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	cur := bdcc.Snapshot()
	if cur.Epoch() == oldEpoch {
		t.Fatalf("append did not publish a new epoch (still %d)", cur.Epoch())
	}
	if n := plan.BinIndexBuilds(cur); n != 0 {
		t.Fatalf("epoch %d starts with %d maps built", cur.Epoch(), n)
	}
	matchPlain(t, "after the append", cur, plain.Snapshot())
	newKeys := batch.Orders.MustColumn("o_orderkey").I64
	curMap := plan.BinIndexMap(cur, key)
	for _, k := range newKeys {
		if _, ok := curMap[k]; !ok {
			t.Fatalf("epoch %d's %s lacks appended order key %d", cur.Epoch(), key, k)
		}
	}

	// The snapshot pinned before the append keeps its version and its map.
	matchPlain(t, "pinned before the append", old, oldPlain)
	if got := plan.BinIndexBuilds(old); got != oldBuilds {
		t.Fatalf("pinned epoch %d rebuilt maps: %d builds, had %d", oldEpoch, got, oldBuilds)
	}
	if m := plan.BinIndexMap(old, key); len(m) != oldLen {
		t.Fatalf("pinned epoch %d's %s grew from %d to %d keys", oldEpoch, key, oldLen, len(m))
	}
	for _, k := range newKeys {
		if _, ok := oldMap[k]; ok {
			t.Fatalf("pinned epoch %d's %s holds appended order key %d", oldEpoch, key, k)
		}
	}

	curBuilds := plan.BinIndexBuilds(cur)
	if err := b.MergeAll(); err != nil {
		t.Fatal(err)
	}
	merged := bdcc.Snapshot()
	matchPlain(t, "after the merge", merged, plain.Snapshot())
	if got := plan.BinIndexBuilds(cur); got != curBuilds {
		t.Fatalf("pinned epoch %d built %d maps after the merge, had %d", cur.Epoch(), got, curBuilds)
	}
	mergedMap := plan.BinIndexMap(merged, key)
	for _, k := range newKeys {
		if mergedMap[k] != curMap[k] {
			t.Fatalf("merged epoch %d maps order %d to bin %d, the delta view to %d", merged.Epoch(), k, mergedMap[k], curMap[k])
		}
	}
}
