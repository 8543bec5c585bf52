package plan

import (
	"fmt"
	"sync"
	"sync/atomic"

	"bdcc/internal/core"
	"bdcc/internal/expr"
	"bdcc/internal/vector"
)

// binSet is a set of dimension bin numbers at the dimension's full
// granularity. A nil binSet means "unrestricted".
type binSet map[uint64]bool

// restrictions maps dimension uses (by useKey, anchored at one base table)
// to the bin sets their rows are known to fall into. These are the planner's
// currency for the paper's selection pushdown and selection propagation:
// they are produced at scans from predicates on dimension keys, transferred
// across joins whose foreign-key paths connect matched uses, and finally
// consumed by the count-table restriction of BDCC scans.
type restrictions map[string]binSet

// useKey identifies a dimension use within its base table.
func useKey(u *core.DimensionUse) string {
	return u.Dim.Name + "|" + u.PathString()
}

// intersectInto merges other into r, intersecting overlapping entries.
func (r restrictions) intersectInto(other restrictions) {
	for k, bins := range other {
		if cur, ok := r[k]; ok {
			merged := make(binSet)
			for b := range cur {
				if bins[b] {
					merged[b] = true
				}
			}
			r[k] = merged
			continue
		}
		r[k] = bins
	}
}

// clone returns a shallow copy (bin sets shared; they are never mutated
// after construction).
func (r restrictions) clone() restrictions {
	out := make(restrictions, len(r))
	for k, v := range r {
		out[k] = v
	}
	return out
}

// binsForLeadingRange converts a closed interval on the leading key column
// of a dimension into the covering bin set. Either bound may be nil.
func binsForLeadingRange(dim *core.Dimension, kind vector.Kind, loI, hiI *int64, loS, hiS *string) binSet {
	var lo, hi *core.KeyVal
	mk := func(i *int64, s *string, closeHi bool) *core.KeyVal {
		if i == nil && s == nil {
			return nil
		}
		var part core.KeyPart
		if kind == vector.String {
			part = core.KeyPart{IsStr: true, S: *s}
		} else {
			part = core.KeyPart{I: *i}
		}
		parts := []core.KeyPart{part}
		if closeHi && len(dim.Key) > 1 {
			parts = append(parts, core.InfPart())
		}
		kv := core.KeyVal{Parts: parts}
		return &kv
	}
	if kind == vector.String {
		lo, hi = mk(nil, loS, false), mk(nil, hiS, true)
	} else {
		lo, hi = mk(loI, nil, false), mk(hiI, nil, true)
	}
	bLo, bHi := dim.BinRange(lo, hi)
	out := make(binSet, bHi-bLo+1)
	for b := bLo; b <= bHi; b++ {
		out[b] = true
	}
	return out
}

// localScanRestrictions derives static restrictions from a scan filter: for
// every local dimension use of the table, a conjunct restricting the
// dimension's leading key column to an interval or an IN list yields a bin
// set ("selection pushdown for a dimension ... used for clustering a
// table").
func localScanRestrictions(bt *core.BDCCTable, filter expr.Expr) restrictions {
	if filter == nil {
		return restrictions{}
	}
	out := restrictions{}
	implied := expr.ImpliedRanges(filter)
	for _, u := range bt.Uses {
		if len(u.Path) != 0 {
			continue
		}
		lead := u.Dim.Key[0]
		if r, ok := implied[lead]; ok && (r.HasLo || r.HasHi) {
			var loI, hiI *int64
			var loS, hiS *string
			if r.HasLo {
				loI, loS = &r.LoI, &r.LoS
			}
			if r.HasHi {
				hiI, hiS = &r.HiI, &r.HiS
			}
			out[useKey(u)] = binsForLeadingRange(u.Dim, r.Kind, loI, hiI, loS, hiS)
		}
		// IN lists with several constants escape ImpliedRanges; handle them
		// directly.
		for _, c := range expr.Conjuncts(filter) {
			in, ok := c.(*expr.InList)
			if !ok || in.Negate || len(in.Values) < 2 {
				continue
			}
			col, ok := in.Arg.(*expr.Col)
			if !ok || col.Name != lead {
				continue
			}
			bins := make(binSet)
			for _, v := range in.Values {
				var vb binSet
				switch v.K {
				case vector.Int64:
					vb = binsForLeadingRange(u.Dim, vector.Int64, &v.I, &v.I, nil, nil)
				case vector.String:
					vb = binsForLeadingRange(u.Dim, vector.String, nil, nil, &v.S, &v.S)
				default:
					continue
				}
				for b := range vb {
					bins[b] = true
				}
			}
			k := useKey(u)
			if cur, restricted := out[k]; restricted {
				merged := make(binSet)
				for b := range cur {
					if bins[b] {
						merged[b] = true
					}
				}
				out[k] = merged
			} else {
				out[k] = bins
			}
		}
	}
	return out
}

// binsForKeyValues maps a set of join-key values to dimension bins for one
// use of the probe base table. The values restrict probe stream column
// probeCol, which must be either the leading key column of a local
// dimension (case B: the region→nation prefix-range rewrite), or the
// foreign-key column of some hop h of the use's path (case A). For h > 0
// the restriction is only sound if every earlier hop's foreign key is
// actually equated by joins inside the probe subtree — `equated` carries
// those pairs. This is how a pre-executed dimension-side subtree's
// selection becomes a count-table restriction — the paper's "a region
// equi-selection determines a consecutive D_NATION bin range" generalized
// to arbitrary key sets at any depth of the dimension path.
func (p *Planner) binsForKeyValues(u *core.DimensionUse, probeCol string, vals []int64, equated map[string]bool) (binSet, error) {
	dim := u.Dim
	if len(u.Path) == 0 {
		if probeCol != dim.Key[0] {
			return nil, nil
		}
		bins := make(binSet)
		for _, v := range vals {
			vb := binsForLeadingRange(dim, vector.Int64, &v, &v, nil, nil)
			for b := range vb {
				bins[b] = true
			}
		}
		return bins, nil
	}
	hop := -1
	for h, fkName := range u.Path {
		fk := p.DB.Schema.FK(fkName)
		if fk == nil {
			return nil, nil
		}
		if len(fk.Cols) == 1 && fk.Cols[0] == probeCol {
			hop = h
			break
		}
	}
	if hop < 0 {
		return nil, nil
	}
	// Verify the hops leading to probeCol are joined within the probe
	// subtree (otherwise probeCol's values say nothing about the base
	// table's rows — the self-join safety condition).
	for h := 0; h < hop; h++ {
		fk := p.DB.Schema.FK(u.Path[h])
		for i := range fk.Cols {
			if !equated[fk.Cols[i]+"="+fk.RefCols[i]] {
				return nil, nil
			}
		}
	}
	m, err := p.valueBinMap(u, hop)
	if err != nil || m == nil {
		return nil, err
	}
	bins := make(binSet)
	for _, v := range vals {
		if b, ok := m[v]; ok {
			bins[b] = true
		}
	}
	return bins, nil
}

// binIndex holds the hop-key → dimension-bin maps of one immutable DB
// version (the loaded base, or one published ingest epoch). Maps depend
// only on the version's tables, so every planner over the version shares
// them; each (dimension, foreign key) map is built once, on first use.
type binIndex struct {
	mu   sync.Mutex
	maps map[string]*binMap
	// builds counts completed map builds (read by tests).
	builds atomic.Int64
}

type binMap struct {
	once sync.Once
	m    map[int64]uint64
	err  error
}

// versionIndex returns the value→bin index of the version db serves: a pinned
// snapshot's epoch, otherwise the loaded base.
func (db *DB) versionIndex() *binIndex {
	if db.snap != nil {
		return &db.snap.bins
	}
	if x := db.bins.Load(); x != nil {
		return x
	}
	db.bins.CompareAndSwap(nil, &binIndex{})
	return db.bins.Load()
}

// valueBinMap returns the map from hop h's reference key value to the
// dimension bin reached over the rest of the use's path, building it on the
// version's first request.
func (p *Planner) valueBinMap(u *core.DimensionUse, hop int) (map[int64]uint64, error) {
	fk := p.DB.Schema.FK(u.Path[hop])
	key := u.Dim.Name + "|" + fk.Name
	x := p.DB.versionIndex()
	x.mu.Lock()
	if x.maps == nil {
		x.maps = make(map[string]*binMap)
	}
	e := x.maps[key]
	if e == nil {
		e = &binMap{}
		x.maps[key] = e
	}
	x.mu.Unlock()
	e.once.Do(func() {
		e.m, e.err = buildValueBinMap(p.DB, u, hop)
		x.builds.Add(1)
	})
	return e.m, e.err
}

func buildValueBinMap(db *DB, u *core.DimensionUse, hop int) (map[int64]uint64, error) {
	fk := db.Schema.FK(u.Path[hop])
	ref, ok := db.Tables[fk.RefTable]
	if !ok {
		return nil, fmt.Errorf("plan: no stored table %q", fk.RefTable)
	}
	refCol, err := ref.Column(fk.RefCols[0])
	if err != nil {
		return nil, err
	}
	if refCol.Kind != vector.Int64 {
		return nil, nil
	}
	hostRows, err := core.NewResolver(db.Schema, db.Tables).HostRows(fk.RefTable, u.Path[hop+1:])
	if err != nil {
		return nil, err
	}
	dim := u.Dim
	hostKeys, err := core.KeyValues(db.Tables[dim.Table], dim.Key)
	if err != nil {
		return nil, err
	}
	hostBins := make([]uint64, len(hostKeys))
	for i, k := range hostKeys {
		hostBins[i] = dim.BinOf(k)
	}
	m := make(map[int64]uint64, len(refCol.I64))
	for i, v := range refCol.I64 {
		m[v] = hostBins[hostRows[i]]
	}
	return m, nil
}

// equatedPairs collects the column equalities established by equi-joins in
// a subtree, as "a=b" strings in both orders.
func equatedPairs(n Node, out map[string]bool) {
	switch t := n.(type) {
	case *Join:
		for i := range t.LeftKeys {
			out[t.LeftKeys[i]+"="+t.RightKeys[i]] = true
			out[t.RightKeys[i]+"="+t.LeftKeys[i]] = true
		}
		equatedPairs(t.Left, out)
		equatedPairs(t.Right, out)
	case *FilterNode:
		equatedPairs(t.Child, out)
	case *Project:
		equatedPairs(t.Child, out)
	case *Agg:
		equatedPairs(t.Child, out)
	case *OrderBy:
		equatedPairs(t.Child, out)
	case *LimitNode:
		equatedPairs(t.Child, out)
	case *TopNNode:
		equatedPairs(t.Child, out)
	}
}
