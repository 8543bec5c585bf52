package plan

import "sort"

// BinIndexBuilds reports how many value→bin maps db's version has built.
func BinIndexBuilds(db *DB) int64 { return db.versionIndex().builds.Load() }

// BinIndexKeys lists the (dimension|foreign key) maps db's version holds.
func BinIndexKeys(db *DB) []string {
	x := db.versionIndex()
	x.mu.Lock()
	defer x.mu.Unlock()
	keys := make([]string, 0, len(x.maps))
	for k := range x.maps {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// BinIndexMap returns the built map under key in db's version, or nil.
func BinIndexMap(db *DB, key string) map[int64]uint64 {
	x := db.versionIndex()
	x.mu.Lock()
	e := x.maps[key]
	x.mu.Unlock()
	if e == nil {
		return nil
	}
	e.once.Do(func() {}) // waits for an in-flight build
	return e.m
}
