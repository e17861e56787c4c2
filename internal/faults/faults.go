package faults

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"time"
)

// Plan describes the fault mix. Rates are per-event probabilities in
// [0, 1]; the zero value injects nothing.
type Plan struct {
	// Seed makes the plan reproducible.
	Seed int64

	// DNSLoss silently drops the query (the client times out).
	DNSLoss float64
	// DNSServFail answers SERVFAIL.
	DNSServFail float64
	// DNSRefuse answers REFUSED.
	DNSRefuse float64
	// DNSTruncate forces the TC bit on UDP answers (the client retries
	// over TCP, where the same key may fault again).
	DNSTruncate float64

	// ConnReset closes a TCP connection mid-handshake (policy host) or
	// before the greeting (SMTP).
	ConnReset float64

	// LatencyRate adds Latency before the affected event.
	LatencyRate float64
	// Latency is the added delay per latency event.
	Latency time.Duration

	// MaxConsecutive bounds consecutive faults per key. 0 means 2.
	// Retry loops need MaxAttempts > MaxConsecutive to be guaranteed
	// through.
	MaxConsecutive int
}

// Active reports whether the plan injects anything.
func (p Plan) Active() bool {
	return p.DNSLoss > 0 || p.DNSServFail > 0 || p.DNSRefuse > 0 ||
		p.DNSTruncate > 0 || p.ConnReset > 0 || (p.LatencyRate > 0 && p.Latency > 0)
}

func (p Plan) maxConsecutive() int {
	if p.MaxConsecutive <= 0 {
		return 2
	}
	return p.MaxConsecutive
}

// String renders the active rates, for run logs.
func (p Plan) String() string {
	parts := []string{fmt.Sprintf("seed=%d", p.Seed)}
	add := func(name string, v float64) {
		if v > 0 {
			parts = append(parts, fmt.Sprintf("%s=%.2g", name, v))
		}
	}
	add("dns_loss", p.DNSLoss)
	add("dns_servfail", p.DNSServFail)
	add("dns_refuse", p.DNSRefuse)
	add("dns_truncate", p.DNSTruncate)
	add("conn_reset", p.ConnReset)
	if p.LatencyRate > 0 && p.Latency > 0 {
		parts = append(parts, fmt.Sprintf("latency=%v@%.2g", p.Latency, p.LatencyRate))
	}
	parts = append(parts, fmt.Sprintf("max_consecutive=%d", p.maxConsecutive()))
	return strings.Join(parts, ",")
}

// DNSAction is the injected outcome for one DNS query.
type DNSAction int

// DNS fault actions.
const (
	DNSNone DNSAction = iota
	DNSDrop
	DNSServFail
	DNSRefuse
	DNSTruncate
)

// String returns the action's counter segment.
func (a DNSAction) String() string {
	switch a {
	case DNSNone:
		return "none"
	case DNSDrop:
		return "drop"
	case DNSServFail:
		return "servfail"
	case DNSRefuse:
		return "refuse"
	case DNSTruncate:
		return "truncate"
	}
	return fmt.Sprintf("action(%d)", int(a))
}

// ConnAction is the injected outcome for one connection event.
type ConnAction int

// Connection fault actions.
const (
	ConnNone ConnAction = iota
	ConnReset
)

// String returns the action's counter segment.
func (a ConnAction) String() string {
	switch a {
	case ConnNone:
		return "none"
	case ConnReset:
		return "reset"
	}
	return fmt.Sprintf("action(%d)", int(a))
}

// Injector realizes a Plan, tracking per-key sequence numbers and the
// consecutive-fault bound. Safe for concurrent use; all methods are
// no-ops on a nil receiver.
type Injector struct {
	plan Plan

	mu     sync.Mutex
	keys   map[string]*keyState
	counts map[string]int64
}

type keyState struct {
	seq         uint64
	consecutive int
}

// NewInjector returns an injector for the plan.
func NewInjector(p Plan) *Injector {
	return &Injector{
		plan:   p,
		keys:   make(map[string]*keyState),
		counts: make(map[string]int64),
	}
}

// Plan returns the injector's plan (zero value on nil).
func (i *Injector) Plan() Plan {
	if i == nil {
		return Plan{}
	}
	return i.plan
}

// DNS decides the fate of one DNS query. key should identify the
// query's (name, type) so per-key sequences are stable across runs.
func (i *Injector) DNS(key string) (DNSAction, time.Duration) {
	if i == nil || !i.plan.Active() {
		return DNSNone, 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	u, delay := i.nextLocked("dns", key)
	act := DNSNone
	p := i.plan
	switch {
	case u < p.DNSLoss:
		act = DNSDrop
	case u < p.DNSLoss+p.DNSServFail:
		act = DNSServFail
	case u < p.DNSLoss+p.DNSServFail+p.DNSRefuse:
		act = DNSRefuse
	case u < p.DNSLoss+p.DNSServFail+p.DNSRefuse+p.DNSTruncate:
		act = DNSTruncate
	}
	act = DNSAction(i.commitLocked("dns", key, int(act), int(DNSNone)))
	if act != DNSNone {
		i.counts["dns."+act.String()]++
	}
	return act, delay
}

// Conn decides the fate of one connection-level event for a service
// ("policysrv", "smtpd"). key should be stable across runs (an SNI
// name, a server hostname).
func (i *Injector) Conn(service, key string) (ConnAction, time.Duration) {
	if i == nil || !i.plan.Active() {
		return ConnNone, 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	u, delay := i.nextLocked(service, key)
	act := ConnNone
	if u < i.plan.ConnReset {
		act = ConnReset
	}
	act = ConnAction(i.commitLocked(service, key, int(act), int(ConnNone)))
	if act != ConnNone {
		i.counts[service+"."+act.String()]++
	}
	return act, delay
}

// nextLocked draws the decision and latency uniforms for the key's next
// event and advances its sequence number.
func (i *Injector) nextLocked(kind, key string) (u float64, delay time.Duration) {
	full := kind + "|" + key
	st := i.keys[full]
	if st == nil {
		st = &keyState{}
		i.keys[full] = st
	}
	u = unitHash(i.plan.Seed, "act|"+full, st.seq)
	if i.plan.LatencyRate > 0 && i.plan.Latency > 0 &&
		unitHash(i.plan.Seed, "lat|"+full, st.seq) < i.plan.LatencyRate {
		delay = i.plan.Latency
		i.counts[kind+".delay"]++
	}
	st.seq++
	return u, delay
}

// commitLocked applies the consecutive-fault bound: a drawn fault is
// suppressed once the key has faulted MaxConsecutive times in a row,
// and the counter resets on any clean event.
func (i *Injector) commitLocked(kind, key string, act, none int) int {
	st := i.keys[kind+"|"+key]
	if act != none && st.consecutive >= i.plan.maxConsecutive() {
		act = none
	}
	if act != none {
		st.consecutive++
	} else {
		st.consecutive = 0
	}
	return act
}

// Counts returns a copy of the injected-action counters
// (e.g. "dns.drop", "policysrv.reset", "dns.delay").
func (i *Injector) Counts() map[string]int64 {
	if i == nil {
		return nil
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	out := make(map[string]int64, len(i.counts))
	for k, v := range i.counts {
		out[k] = v
	}
	return out
}

// unitHash maps (seed, label, seq) to a uniform float64 in [0, 1) via
// FNV-1a with a splitmix64 finalizer for avalanche.
func unitHash(seed int64, label string, seq uint64) float64 {
	h := fnv.New64a()
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(seed))
	binary.LittleEndian.PutUint64(buf[8:], seq)
	h.Write(buf[:])
	h.Write([]byte(label))
	v := h.Sum64()
	// splitmix64 finalizer.
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return float64(v>>11) / (1 << 53)
}
