package campaign

import (
	"fmt"
	"strconv"
	"strings"
)

// Store key layout (docs/CAMPAIGN.md "Store layout"):
//
//	c/<id>/meta                  campaign metadata (Meta)
//	c/<id>/w/<week>/d/<domain>   one DomainRecord per scanned domain
//	c/<id>/ck/<week>/<shard>     one Checkpoint per completed shard
//
// Week and shard numbers are zero-padded so lexicographic key order is
// numeric order, which is what makes prefix scans yield weeks and
// domains in a stable, mergeable order.

// maxWeeks / maxShards bound the zero-padding; beyond them key order
// would stop being numeric.
const (
	maxWeeks  = 10000
	maxShards = 1000000
)

// validateID rejects campaign IDs that would break the key layout.
func validateID(id string) error {
	if id == "" {
		return fmt.Errorf("campaign: empty campaign ID")
	}
	if strings.ContainsAny(id, "/ \t\n") {
		return fmt.Errorf("campaign: ID %q must not contain '/' or whitespace", id)
	}
	return nil
}

func metaKey(id string) string {
	return "c/" + id + "/meta"
}

func recordKey(id string, week int, domain string) string {
	var num [24]byte
	return "c/" + id + "/w/" + string(appendPadded(num[:0], week, 4)) + "/d/" + domain
}

// weekPrefix is the Scan prefix covering every domain record of a week.
func weekPrefix(id string, week int) string {
	return recordKey(id, week, "")
}

func checkpointKey(id string, week, shard int) string {
	var num [24]byte
	return checkpointPrefix(id, week) + string(appendPadded(num[:0], shard, 6))
}

// checkpointPrefix covers every shard checkpoint of a week.
func checkpointPrefix(id string, week int) string {
	var num [24]byte
	return "c/" + id + "/ck/" + string(appendPadded(num[:0], week, 4)) + "/"
}

// appendPadded appends n in decimal, zero-padded to width as fmt's %0*d
// does: a sign counts toward the width, and a wider n is not cut.
func appendPadded(dst []byte, n, width int) []byte {
	u := uint64(n)
	if n < 0 {
		dst = append(dst, '-')
		u = -u
		width--
	}
	var digits [20]byte
	d := strconv.AppendUint(digits[:0], u, 10)
	for i := len(d); i < width; i++ {
		dst = append(dst, '0')
	}
	return append(dst, d...)
}

// allCheckpointsPrefix covers every checkpoint of the campaign.
func allCheckpointsPrefix(id string) string {
	return "c/" + id + "/ck/"
}
