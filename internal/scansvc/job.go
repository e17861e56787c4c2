package scansvc

import (
	"encoding/json"
	"fmt"
	"time"

	"github.com/netsecurelab/mtasts/internal/store"
)

// State is a job's lifecycle position. Transitions only move forward:
// pending → running → one of done/failed/canceled; a crash mid-run
// leaves the stored state at running, which Start treats as "resume me"
// (docs/SERVICE.md "Job lifecycle").
type State string

// Job lifecycle states.
const (
	StatePending  State = "pending"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether a job in this state will never run again.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Job is one queued scan: a tenant-submitted domain list working its
// way through the durable queue. The struct is the stored form and the
// API wire form at once.
type Job struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	State  State  `json:"state"`
	// Domains is the submitted domain count (the list itself is stored
	// separately under the domains key).
	Domains int `json:"domains"`
	// Shards is how many checkpointed shards the job's scan uses.
	Shards int `json:"shards,omitempty"`
	// Error carries the failure message for StateFailed.
	Error string `json:"error,omitempty"`
	// SubmittedAt/FinishedAt bound the job's wall-clock life. Stored
	// UTC; FinishedAt is zero until a terminal state.
	SubmittedAt time.Time `json:"submitted_at"`
	FinishedAt  time.Time `json:"finished_at,omitempty"`
}

// Store key layout, under its own svc/ root so a service store can
// coexist with campaign data (campaign keys live under c/):
//
//	svc/job/<id>                 Job JSON (the queue's durable state)
//	svc/dom/<id>                 submitted domain list, JSON array
//	svc/rpt/<domain>/<window>/<report-id>  ingested TLSRPT report JSON
//
// Job scan results live under the campaign layout (c/<id>/...): each
// job runs as a single-week campaign whose campaign ID is the job ID,
// inheriting its shard checkpoints, crash-resume and canonical
// snapshot encoding.
const (
	jobKeyPrefix = "svc/job/"
	domKeyPrefix = "svc/dom/"
	rptKeyPrefix = "svc/rpt/"
	resultsWeek  = 0
)

func jobKey(id string) string { return jobKeyPrefix + id }
func domKey(id string) string { return domKeyPrefix + id }

// rptDomainPrefix is the scan prefix holding every stored report window
// for one policy domain.
func rptDomainPrefix(domain string) string { return rptKeyPrefix + domain + "/" }

func rptKey(domain, window, reportID string) string {
	return rptDomainPrefix(domain) + window + "/" + reportID
}

// putJob persists and syncs a job's state.
func putJob(s store.Store, j *Job) error {
	v, err := json.Marshal(j)
	if err != nil {
		return err
	}
	if err := s.Put(jobKey(j.ID), v); err != nil {
		return err
	}
	return s.Sync()
}

// getJob loads one job by ID.
func getJob(s store.Store, id string) (*Job, bool, error) {
	v, ok, err := s.Get(jobKey(id))
	if err != nil || !ok {
		return nil, ok, err
	}
	var j Job
	if err := json.Unmarshal(v, &j); err != nil {
		return nil, true, fmt.Errorf("scansvc: corrupt job record %s: %w", id, err)
	}
	return &j, true, nil
}

// getDomains loads a job's submitted domain list.
func getDomains(s store.Store, id string) ([]string, error) {
	v, ok, err := s.Get(domKey(id))
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("scansvc: job %s has no stored domain list", id)
	}
	var out []string
	if err := json.Unmarshal(v, &out); err != nil {
		return nil, fmt.Errorf("scansvc: corrupt domain list for %s: %w", id, err)
	}
	return out, nil
}

// jobID renders a sequence number as a job ID (j000001, j000002, ...).
// IDs are fixed-width so store scans list jobs in submission order; the
// width bounds a store at one million jobs, far beyond what a single
// disk store holds.
func jobID(seq int) string { return fmt.Sprintf("j%06d", seq) }

// jobSeq parses an ID back to its sequence number (0 for foreign keys).
// Start uses it to recover the allocator's high-water mark from the
// stored jobs themselves: every acknowledged job is durable, so the max
// stored ID is exactly the last ID handed out.
func jobSeq(id string) int {
	if len(id) != 7 || id[0] != 'j' {
		return 0
	}
	n := 0
	for _, c := range id[1:] {
		if c < '0' || c > '9' {
			return 0
		}
		n = n*10 + int(c-'0')
	}
	return n
}
