package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strconv"
)

// baselineJSON holds the deterministic counters recorded by the steadiness
// runs (see steady.py): per workload, under "*" where they are
// seed-independent and under the seed otherwise.
//
//go:embed baseline.json
var baselineJSON []byte

type baseline struct {
	Exact map[string]map[string]map[string]float64 `json:"exact"`
}

// checkExact compares a run's deterministic counters with the recorded
// ones and prints the outcome; a difference is flagged, not failed, since
// a change to the program may move a counter on purpose.
func checkExact(workload string, seed int64, r *report) {
	var b baseline
	if err := json.Unmarshal(baselineJSON, &b); err != nil {
		fmt.Printf("%s exact-repeat: baseline.json unreadable: %v\n", workload, err)
		return
	}
	want, ok := b.Exact[workload]["*"]
	if !ok {
		want, ok = b.Exact[workload][strconv.FormatInt(seed, 10)]
	}
	if !ok {
		fmt.Printf("%s exact-repeat: no recorded counters for seed %d\n", workload, seed)
		return
	}
	flagged, compared := 0, 0
	for _, k := range exactCounters {
		got, ok := r.exact[k]
		w, recorded := want[k]
		if !ok || !recorded {
			continue
		}
		compared++
		if !sameFloat(got, w) {
			fmt.Printf("%s exact-repeat: FLAG %s = %g, recorded %g\n", workload, k, got, w)
			flagged++
		}
	}
	if flagged == 0 {
		fmt.Printf("%s exact-repeat: all %d counters match the recorded run\n", workload, compared)
	}
}
