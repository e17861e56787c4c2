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
// Two socket settings, one per threat model. The sender's answers
// decide whether mail is delivered securely, so its clients keep the
// default (QueriesPerSocket 0): every UDP exchange dials and closes its
// own socket, and each query leaves from a fresh kernel-chosen source
// port with an ID from the OS-seeded generator, the two values an
// off-path spoofer has to guess (RFC 5452 §9.2). TestFreshSourcePortPerQuery
// pins it, and TestConstructionSites names every client the module
// builds and its setting. The scanner's answers are measurements, and
// dialling and closing a socket was most of its CPU per uncached
// lookup, so its clients set ScannerQueriesPerSocket (M = 16): a free
// list of connected sockets, each carrying one query at a time and
// closed after M queries. The port is still kernel-random and owned by
// the one query in flight; the ID is random; a connected socket takes
// datagrams only from the server's address; and a reply counts only if
// its ID, QR bit and question match the query (§9.1), on either
// setting: a datagram that does not decode or answers something else is
// a stray, and reading goes on until the deadline (which then reads as
// a malformed reply if a stray did not decode, else as a timeout). A
// cancelled context ends the exchange when it is cancelled, not at the
// timeout. A socket is retired — closed, never reused — after any
// failed exchange (timeout, malformed reply, read or write error,
// context end), so an answer still in
// flight to its port cannot meet a later query. A
// socket last used more than idleSocket (1 s) ago is closed when the
// next checkout finds it, and at most maxIdleSockets wait on the list,
// so a port lives for at most M queries and about a second idle, and a
// client whose load falls drains the sockets it no longer needs.
package resolver
