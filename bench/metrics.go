package bench

// Metric is one row of the benchmark's metric catalogue. BENCHMARK.json
// lists the same names, units and directions (bench_test.go holds the
// two in step); Def is the definition bench/README.md prints.
type Metric struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the baseline median it may worsen by; end-to-end only
	Exact  bool    // a count that must repeat exactly between runs of one commit
	Def    string
}

// EndToEnd are the metrics a user of the service would see, measured
// with tracing off; each is the median over the run's repetitions.
// failed_share, the tenth, is reported as the result's failed/attempted
// counts: the harness requires bounded metrics to be non-zero, and its
// bound is zero absolute.
var EndToEnd = []Metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Def: "world generation + substrate start + warm-up repetition; median of 3 complete set-ups"},
	{Name: "domains_per_s", Unit: "1/s", Better: "higher", Bound: 0.25,
		Def: "domains ÷ wall time from the first POST to the last byte of the last results stream"},
	{Name: "cpu_us_per_domain", Unit: "us", Better: "lower", Bound: 0.25,
		Def: "driver-process user+system CPU (getrusage) over the same window ÷ domains"},
	{Name: "allocs_per_domain", Unit: "1", Better: "lower", Bound: 0.05,
		Def: "runtime.MemStats.Mallocs delta over the window ÷ domains"},
	{Name: "alloc_kb_per_domain", Unit: "KB", Better: "lower", Bound: 0.02,
		Def: "runtime.MemStats.TotalAlloc delta over the window ÷ domains"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20,
		Def: "ru_maxrss of the driver process after the last repetition"},
	{Name: "readback_kdomains_per_s", Unit: "1000/s", Better: "higher", Bound: 0.25,
		Def: "after the jobs finish, /results re-read to EOF back to back for 0.5 s per repetition (cycling over all jobs); result lines ÷ elapsed"},
	{Name: "recovery_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Def: "svc.Close + store.Close → OpenDisk + Service.Start + first GET /api/v1/jobs/{id} answering done; median over 9 cycles per repetition"},
	{Name: "store_bytes_per_domain", Unit: "B", Better: "lower", Bound: 0.01,
		Def: "Disk.SizeBytes() ÷ stored domain results"},
}

// PerLayer are the single-layer metrics of the traced phase. Instrument
// A is the boundary wrappers (trace.go), B the isolated ledger
// (ledger.go).
var PerLayer = []Metric{
	{Name: "dnsmsg.pack_ns", Unit: "ns", Better: "lower", Def: "B: Message.Pack on the workload's real DNS answers"},
	{Name: "dnsmsg.pack_allocs", Unit: "1", Better: "lower", Def: "B: allocations per Pack"},
	{Name: "dnsmsg.unpack_ns", Unit: "ns", Better: "lower", Def: "B: dnsmsg.Unpack on the same answers"},
	{Name: "dnsmsg.unpack_allocs", Unit: "1", Better: "lower", Def: "B: allocations per Unpack"},

	{Name: "resolver.lookup_uncached_us", Unit: "us", Better: "lower", Def: "B: Client.LookupMX + LookupTXT with Cache=nil, per lookup"},
	{Name: "resolver.lookup_uncached_allocs", Unit: "1", Better: "lower", Def: "B: allocations per uncached lookup"},
	{Name: "resolver.lookup_uncached_kb", Unit: "KB", Better: "lower", Def: "B: bytes allocated per uncached lookup"},
	{Name: "resolver.lookup_cached_ns", Unit: "ns", Better: "lower", Def: "B: the same lookups against a warm cache"},
	{Name: "resolver.queries_per_domain", Unit: "1", Better: "lower", Exact: true, Def: "A: substrate QueryCount delta over the traced window ÷ domains"},

	{Name: "mtasts.fetch_cold_us", Unit: "us", Better: "lower", Def: "B: Fetcher.Fetch, first contact (full TLS handshake), healthy adopters"},
	{Name: "mtasts.fetch_cold_allocs", Unit: "1", Better: "lower", Def: "B: allocations per cold fetch"},
	{Name: "mtasts.fetch_cold_kb", Unit: "KB", Better: "lower", Def: "B: bytes allocated per cold fetch"},
	{Name: "mtasts.fetch_resumed_us", Unit: "us", Better: "lower", Def: "B: second Fetch of the same domain through the session cache"},
	{Name: "mtasts.fetch_fail_us", Unit: "us", Better: "lower", Def: "B: Fetch of sampled policy-defective domains"},
	{Name: "mtasts.parse_policy_ns", Unit: "ns", Better: "lower", Def: "B: ParsePolicy on the served bodies"},
	{Name: "mtasts.parse_record_ns", Unit: "ns", Better: "lower", Def: "B: DiscoverRecord on the served TXT sets"},

	{Name: "smtpclient.probe_us", Unit: "us", Better: "lower", Def: "B: Prober.ProbeAddr on sampled MX hosts"},
	{Name: "smtpclient.probe_allocs", Unit: "1", Better: "lower", Def: "B: allocations per probe"},
	{Name: "smtpclient.probe_kb", Unit: "KB", Better: "lower", Def: "B: bytes allocated per probe"},
	{Name: "smtpclient.connections_per_domain", Unit: "1", Better: "lower", Exact: true, Def: "A: Σ smtpd.ConnCount delta over the traced window ÷ domains"},

	{Name: "scanner.discover.count", Unit: "count", Better: "lower", Exact: true, Def: "A: Discover calls"},
	{Name: "scanner.discover.busy_s", Unit: "s", Better: "lower", Def: "A: Σ Discover span time"},
	{Name: "scanner.discover.p50_ms", Unit: "ms", Better: "lower", Def: "A: median Discover call"},
	{Name: "scanner.discover.p99_ms", Unit: "ms", Better: "lower", Def: "A: 99th percentile Discover call"},
	{Name: "scanner.fetch.count", Unit: "count", Better: "lower", Exact: true, Def: "A: FetchPolicy calls"},
	{Name: "scanner.fetch.busy_s", Unit: "s", Better: "lower", Def: "A: Σ FetchPolicy span time"},
	{Name: "scanner.fetch.p50_ms", Unit: "ms", Better: "lower", Def: "A: median FetchPolicy call"},
	{Name: "scanner.fetch.p99_ms", Unit: "ms", Better: "lower", Def: "A: 99th percentile FetchPolicy call"},
	{Name: "scanner.probe.count", Unit: "count", Better: "lower", Exact: true, Def: "A: ProbeHost calls"},
	{Name: "scanner.probe.busy_s", Unit: "s", Better: "lower", Def: "A: Σ ProbeHost span time"},
	{Name: "scanner.probe.p50_ms", Unit: "ms", Better: "lower", Def: "A: median ProbeHost call"},
	{Name: "scanner.probe.p99_ms", Unit: "ms", Better: "lower", Def: "A: 99th percentile ProbeHost call"},
	{Name: "scanner.finalize.count", Unit: "count", Better: "lower", Exact: true, Def: "A: Finalize calls"},
	{Name: "scanner.finalize.busy_s", Unit: "s", Better: "lower", Def: "A: Σ Finalize span time"},
	{Name: "scanner.finalize.p50_ms", Unit: "ms", Better: "lower", Def: "A: median Finalize call"},
	{Name: "scanner.finalize.p99_ms", Unit: "ms", Better: "lower", Def: "A: 99th percentile Finalize call"},
	{Name: "scanner.domain_p50_ms", Unit: "ms", Better: "lower", Def: "A: median of first Discover start → Finalize end, per domain"},
	{Name: "scanner.domain_p99_ms", Unit: "ms", Better: "lower", Def: "A: 99th percentile of the same"},
	{Name: "scanner.probe_dup_share", Unit: "ratio", Better: "lower", Exact: true, Def: "A: ProbeHost calls whose MX host was already probed earlier in the job ÷ calls (wasted work)"},
	{Name: "scanner.fetch_dup_share", Unit: "ratio", Better: "lower", Exact: true, Def: "A: FetchPolicy calls whose domain was already fetched earlier in the job ÷ calls"},
	{Name: "scanner.scan_artifacts_ns", Unit: "ns", Better: "lower", Def: "B: scanner.ScanArtifacts on sampled domains"},
	{Name: "scanner.scan_artifacts_allocs", Unit: "1", Better: "lower", Def: "B: allocations per ScanArtifacts"},

	{Name: "campaign.shards", Unit: "count", Better: "lower", Exact: true, Def: "A: shard batches written (store.Batch calls)"},
	{Name: "campaign.shard_gap_share", Unit: "ratio", Better: "lower", Def: "A: share of job wall, between the job's first stage call and its completion, with no stage call in flight: encode + Batch + 2×Sync + checkpoint while the pipeline sits empty"},
	{Name: "campaign.encode_ns_per_record", Unit: "ns", Better: "lower", Def: "B: campaign.FromResult + Encode"},
	{Name: "campaign.snapshot_ns_per_record", Unit: "ns", Better: "lower", Def: "B: campaign.WriteSnapshot of a finished job to io.Discard"},

	{Name: "store.batch.count", Unit: "count", Better: "lower", Exact: true, Def: "A: Batch calls"},
	{Name: "store.batch_us_per_record", Unit: "us", Better: "lower", Def: "A: Σ Batch span time ÷ records batched"},
	{Name: "store.sync.count", Unit: "count", Better: "lower", Exact: true, Def: "A: Sync calls (each an fsync)"},
	{Name: "store.sync_p50_ms", Unit: "ms", Better: "lower", Def: "A: median Sync call"},
	{Name: "store.sync_busy_share", Unit: "ratio", Better: "lower", Def: "A: Σ Sync span time ÷ the traced window's wall time"},
	{Name: "store.put.count", Unit: "count", Better: "lower", Exact: true, Def: "A: Put calls"},
	{Name: "store.get.count", Unit: "count", Better: "lower", Def: "A: Get calls (each status poll is one)"},
	{Name: "store.scan.count", Unit: "count", Better: "lower", Exact: true, Def: "A: Scan calls"},
	{Name: "store.scan_ns_per_record", Unit: "ns", Better: "lower", Def: "B: Disk.Scan over a finished job's records, per record"},
	{Name: "store.replay_ns_per_record", Unit: "ns", Better: "lower", Def: "B: store.OpenDisk on the populated directory ÷ records replayed"},
	{Name: "store.bytes_per_record", Unit: "B", Better: "lower", Def: "A: Disk.SizeBytes() ÷ records appended (Put + batched)"},

	{Name: "scansvc.submit_ms", Unit: "ms", Better: "lower", Def: "A: POST /api/v1/jobs → 202, median"},
	{Name: "scansvc.queue_wait_ms", Unit: "ms", Better: "lower", Def: "A: 202 → first stage call of that job, median"},
	{Name: "scansvc.job_p50_ms", Unit: "ms", Better: "lower", Def: "A: submit → results read, median over the jobs"},
	{Name: "scansvc.job_p95_ms", Unit: "ms", Better: "lower", Def: "A: 95th percentile of the same"},
	{Name: "scansvc.results_us_per_domain", Unit: "us", Better: "lower", Def: "A: Σ results-stream time ÷ lines streamed"},
	{Name: "scansvc.results_bytes_per_domain", Unit: "B", Better: "lower", Def: "A: results bytes ÷ lines streamed"},
	{Name: "scansvc.http_errors", Unit: "count", Better: "lower", Exact: true, Def: "A: requests that failed or answered an unexpected status"},

	{Name: "tlsrpt.ingest_us", Unit: "us", Better: "lower", Def: "B: tlsrpt.IngestReport"},
	{Name: "tlsrpt.http_ingest_ms", Unit: "ms", Better: "lower", Def: "A: POST /api/v1/tlsrpt, median"},
	{Name: "tlsrpt.join_us_per_domain", Unit: "us", Better: "lower", Def: "A: /results?join=tlsrpt minus plain /results of the same job, per line"},

	{Name: "trace.spans", Unit: "count", Better: "lower", Def: "A: spans recorded in the traced repetition"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower", Def: "(traced cpu_us_per_domain − untraced median) ÷ untraced median; must stay ≤ 0.10"},
	{Name: "trace.unaccounted_share", Unit: "ratio", Better: "lower", Def: "A: job wall covered by no stage span, shard gap, store span or HTTP span; must stay ≤ 0.10"},
}

var units = func() map[string]string {
	m := make(map[string]string, len(EndToEnd)+len(PerLayer))
	for _, list := range [][]Metric{EndToEnd, PerLayer} {
		for _, x := range list {
			m[x.Name] = x.Unit
		}
	}
	return m
}()

// unitOf returns a catalogued metric's unit; asking for an uncatalogued
// name is a bug in the bench.
func unitOf(name string) string {
	u, ok := units[name]
	if !ok {
		panic("bench: metric " + name + " is not in the catalogue")
	}
	return u
}
