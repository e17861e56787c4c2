// Package resolver provides the DNS client side of the measurement
// apparatus: a stub resolver speaking the dnsmsg wire format over UDP with
// TCP fallback on truncation, CNAME chasing across zones, a TTL-respecting
// cache, and a token-bucket rate limiter (the paper rate-limits its scans
// to avoid overloading small authoritative servers, §3.1).
//
// Setting Client.Obs to an *obs.Registry instruments every query: a
// resolver.query.seconds latency histogram, resolver.queries.total and
// per-kind resolver.query.errors.<kind> counters, TCP-fallback and
// rate-limiter-wait counters, and snapshot-time gauges over the cache's
// hit/miss/expiry statistics (which Cache tracks unconditionally via
// cheap atomics — see CacheStats). A nil Obs costs one pointer check per
// query. The metric catalog is docs/OBSERVABILITY.md.
//
// Buffer ownership. A reply, UDP or TCP, is read into a pooled 64 KiB
// scratch (replyBufs) that the exchange takes and puts back on every
// return path, so an uncached lookup allocates what its reply decodes to,
// not what the largest datagram could be. That is sound only because
// dnsmsg.Unpack copies every name, string and byte field out of its
// input: nothing a lookup returns, caches or hands to a coalesced waiter
// may alias the scratch, and the exchange path must not retain a slice of
// it past its return.
//
// One socket per query. Every UDP exchange dials and closes its own
// socket, so each query leaves from a fresh kernel-chosen source port
// with an ID from the OS-seeded generator — the two values an off-path
// spoofer has to guess (RFC 5452), and the sender MTA resolves through
// this same client. Keeping connected sockets per upstream would save the
// dial and close, most of the client's CPU per uncached lookup; it is an
// open decision in ROADMAP.md (TestFreshSourcePortPerQuery pins today's
// answer), not an oversight.
package resolver
