package store

import (
	"sort"
	"strings"
)

// keyIndex is the ordered key set both backends answer Scan from. A
// backend adds each key once, when its own map first sees it; both
// methods need the lock guarding that map, held exclusively.
type keyIndex struct {
	// sorted is ascending and never written to once assigned: Scans
	// keep subslices of it as their snapshot after the lock is dropped.
	sorted []string
	tail   []string // keys added since the last merge, in arrival order
}

// add records a key not yet in the index, in amortised constant time.
func (x *keyIndex) add(key string) { x.tail = append(x.tail, key) }

// under returns the keys with the prefix, ascending, as a subslice of
// sorted that stays valid however long the caller holds it: a non-empty
// tail is first sorted and merged into a fresh slice (O(n), once per
// run of adds), then the range is two binary searches.
func (x *keyIndex) under(prefix string) []string {
	if len(x.tail) > 0 {
		sort.Strings(x.tail)
		merged := make([]string, 0, len(x.sorted)+len(x.tail))
		old, tail := x.sorted, x.tail
		for len(old) > 0 && len(tail) > 0 {
			if old[0] < tail[0] {
				merged, old = append(merged, old[0]), old[1:]
			} else {
				merged, tail = append(merged, tail[0]), tail[1:]
			}
		}
		x.sorted, x.tail = append(append(merged, old...), tail...), nil
	}
	// Keys holding the prefix are contiguous and start at the first key
	// not below it, so HasPrefix is monotone from there on.
	from := x.sorted[sort.SearchStrings(x.sorted, prefix):]
	return from[:sort.Search(len(from), func(i int) bool { return !strings.HasPrefix(from[i], prefix) })]
}
