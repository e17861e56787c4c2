package bench

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// layers is the traced phase. Untraced and traced repetitions alternate
// (so box drift hits both alike) until cfg.Seconds have passed; the
// last traced repetition's spans give the per-layer numbers and
// trace-<workload>.jsonl, the isolated ledger gives the rest.
func (e *env) layers(res *Result) error {
	var plain, traced series
	var last repMeasure
	start := time.Now()
	for pair := 0; e.more(pair, 2, start); pair++ {
		for _, tr := range []*tracer{nil, newTracer()} {
			m, err := e.repetition(tr, true)
			if err != nil {
				return err
			}
			res.account(e.cfg, &m)
			if m.failed > 0 {
				return nil
			}
			cpu := us(m.cpu) / float64(m.domains)
			fmt.Fprintf(e.cfg.Log, "pair %d traced=%v: %8.1f domains/s %9.1f cpu-us/domain\n", pair, tr != nil, float64(m.domains)/m.wall.Seconds(), cpu)
			if tr == nil {
				plain = append(plain, cpu)
			} else {
				traced = append(traced, cpu)
				last = m
			}
		}
	}

	spans := attribute(last.spans, last.runs, last.spanLo, last.spanHi)
	path := filepath.Join(e.cfg.WorkDir, "trace-"+e.world.Workload+".jsonl")
	if err := writeJSONL(path, spans); err != nil {
		return err
	}

	vals := analyze(spans, &last)
	for k, v := range last.ledger {
		vals[k] = v
	}
	ledger, err := isolatedLedger(e)
	if err != nil {
		return err
	}
	for k, v := range ledger {
		vals[k] = v
	}
	vals["trace.overhead_share"] = (traced.median() - plain.median()) / plain.median()

	fmt.Fprintf(e.cfg.Log, "-- per-layer (traced repetition; %d spans in %s; cpu_us_per_domain untraced %.2f / traced %.2f over %d pairs)\n",
		len(spans), path, plain.median(), traced.median(), len(plain))
	for _, m := range PerLayer {
		v, ok := vals[m.Name]
		note := ""
		if !ok {
			note = "(layer not reached by this workload)"
		}
		res.Metrics[m.Name] = Value{Value: v, Unit: m.Unit}
		fmt.Fprintf(e.cfg.Log, "%-36s %14.4f %-6s %s\n", m.Name, v, m.Unit, note)
	}
	fmt.Fprintf(e.cfg.Log, "-- where the job wall went (shares sum to 1): stage calls %.3f | shard gap %.3f | store %.3f | http %.3f | unaccounted %.3f\n",
		vals["share.stage"], vals["campaign.shard_gap_share"], vals["share.store"], vals["share.http"], vals["trace.unaccounted_share"])
	busy := vals["scanner.discover.busy_s"] + vals["scanner.fetch.busy_s"] + vals["scanner.probe.busy_s"] + vals["scanner.finalize.busy_s"]
	fmt.Fprintf(e.cfg.Log, "-- stage busy time is %.3f of job wall (%d workers a stage); fetch + probe are %.3f of it\n",
		vals["share.stage_busy"], Workers(), (vals["scanner.fetch.busy_s"]+vals["scanner.probe.busy_s"])/busy)
	return nil
}

// jobOfKey extracts the job a store key belongs to ("" for keys that
// belong to none, such as stored TLSRPT reports).
func jobOfKey(key string) string {
	switch {
	case strings.HasPrefix(key, "c/"):
		id, _, _ := strings.Cut(key[2:], "/")
		return id
	case strings.HasPrefix(key, "svc/job/"):
		return key[len("svc/job/"):]
	case strings.HasPrefix(key, "svc/dom/"):
		return key[len("svc/dom/"):]
	}
	return ""
}

// attribute keeps the spans of the timed window, adds one root span per
// job, and gives every span it can a job and a parent: HTTP spans carry
// their job already, store spans name it in their key, stage spans
// belong to the job that listed their domain and was running then.
//
// lo and hi bound the timed window on the span clock.
func attribute(all []Span, runs []jobRun, lo, hi int64) []Span {
	// Each job's window on the span clock runs from its submit span to
	// the end of its results span.
	type window struct{ start, end int64 }
	win := make(map[string]window, len(runs))
	for _, s := range all {
		switch s.Name {
		case spanSubmit:
			win[s.Job] = window{start: s.Start, end: win[s.Job].end}
		case spanResults:
			if s.End > win[s.Job].end {
				win[s.Job] = window{start: win[s.Job].start, end: s.End}
			}
		}
	}
	owners := make(map[string][]string) // domain → jobs that list it
	for i := range runs {
		for _, d := range runs[i].Domains {
			owners[d] = append(owners[d], runs[i].ID)
		}
	}
	out := make([]Span, 0, len(all)+len(runs))
	root := make(map[string]int, len(runs))
	for i := range runs {
		wn := win[runs[i].ID]
		root[runs[i].ID] = len(out)
		out = append(out, Span{ID: len(out), Name: spanJob, Start: wn.start, End: wn.end, Job: runs[i].ID, N: len(runs[i].Domains), Parent: -1})
	}
	for _, s := range all {
		if s.Start < lo || s.Start > hi {
			continue // set-up, read-back or recovery traffic
		}
		switch {
		case s.Job != "":
		case strings.HasPrefix(s.Name, "store."):
			s.Job = jobOfKey(s.Key)
		case s.Domain != "":
			for _, id := range owners[s.Domain] {
				if wn := win[id]; s.Start >= wn.start && s.Start <= wn.end {
					s.Job = id
					break
				}
			}
		}
		s.ID, s.Parent = len(out), -1
		if r, ok := root[s.Job]; ok && s.Job != "" {
			s.Parent = r
		}
		out = append(out, s)
	}
	return out
}

// interval is a half-open stretch of the span clock.
type interval struct{ a, b int64 }

// union merges intervals and returns them sorted and disjoint.
func union(in []interval) []interval {
	sort.Slice(in, func(i, j int) bool { return in[i].a < in[j].a })
	var out []interval
	for _, iv := range in {
		if iv.b <= iv.a {
			continue
		}
		if n := len(out); n > 0 && iv.a <= out[n-1].b {
			out[n-1].b = max(out[n-1].b, iv.b)
			continue
		}
		out = append(out, iv)
	}
	return out
}

// clip restricts disjoint sorted intervals to [a, b).
func clip(in []interval, a, b int64) []interval {
	var out []interval
	for _, iv := range in {
		if lo, hi := max(iv.a, a), min(iv.b, b); lo < hi {
			out = append(out, interval{lo, hi})
		}
	}
	return out
}

// subtract removes the cut intervals from in (both disjoint, sorted).
func subtract(in, cut []interval) []interval {
	var out []interval
	for _, iv := range in {
		a := iv.a
		for _, c := range cut {
			if c.b <= a || c.a >= iv.b {
				continue
			}
			if c.a > a {
				out = append(out, interval{a, c.a})
			}
			a = max(a, c.b)
		}
		if a < iv.b {
			out = append(out, interval{a, iv.b})
		}
	}
	return out
}

func total(in []interval) int64 {
	var n int64
	for _, iv := range in {
		n += iv.b - iv.a
	}
	return n
}

func durs(spans []*Span) series {
	out := make(series, len(spans))
	for i, s := range spans {
		out[i] = ms(s.Dur())
	}
	return out
}

// analyze turns the attributed spans of one traced repetition into the
// instrument-A metrics.
func analyze(spans []Span, m *repMeasure) map[string]float64 {
	v := make(map[string]float64)
	byName := make(map[string][]*Span)
	byJob := make(map[string][]*Span)
	for i := range spans {
		s := &spans[i]
		byName[s.Name] = append(byName[s.Name], s)
		if s.Job != "" {
			byJob[s.Job] = append(byJob[s.Job], s)
		}
	}
	n := float64(m.domains)

	// scanner: one row of count/busy/p50/p99 per stage.
	var stageBusy float64
	for _, stage := range []string{"discover", "fetch", "probe", "finalize"} {
		ss := byName["scanner."+stage]
		d := durs(ss)
		busy := 0.0
		for _, x := range d {
			busy += x / 1000
		}
		stageBusy += busy
		v["scanner."+stage+".count"] = float64(len(ss))
		v["scanner."+stage+".busy_s"] = busy
		v["scanner."+stage+".p50_ms"] = d.median()
		v["scanner."+stage+".p99_ms"] = d.quantile(0.99)
	}

	// store: counts and per-call costs over the window.
	var records, syncBusy float64
	for _, s := range byName["store.batch"] {
		records += float64(s.N)
		v["store.batch_us_per_record"] += us(s.Dur())
	}
	if records > 0 {
		v["store.batch_us_per_record"] /= records
	}
	for _, s := range byName["store.sync"] {
		syncBusy += s.Dur().Seconds()
	}
	for _, op := range []string{"batch", "sync", "put", "get", "scan"} {
		v["store."+op+".count"] = float64(len(byName["store."+op]))
	}
	v["store.sync_p50_ms"] = durs(byName["store.sync"]).median()
	v["store.sync_busy_share"] = syncBusy / m.wall.Seconds()
	v["store.bytes_per_record"] = float64(m.storeBytes) / (records + v["store.put.count"])
	v["campaign.shards"] = v["store.batch.count"]

	// Exact substrate counts.
	v["resolver.queries_per_domain"] = float64(m.queries) / n
	v["smtpclient.connections_per_domain"] = float64(m.conns) / n

	// Per job: latencies, duplicate work, and where the wall went.
	var storeAll []interval
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "store.") {
			storeAll = append(storeAll, interval{s.Start, s.End})
		}
	}
	storeAll = union(storeAll)
	var submit, queue, jobWall, domainLat series
	var wallSum, stageT, gapT, storeT, httpT, lostT int64
	var probes, probeDup, fetches, fetchDup, lines, bytes, resultsT float64
	for _, root := range byName[spanJob] {
		js := byJob[root.Job]
		var stages, https []interval
		first := make(map[string]int64) // domain → first Discover start
		seenProbe, seenFetch := make(map[string]bool), make(map[string]bool)
		var firstStage, done, accepted int64 = -1, root.End, root.Start
		sort.Slice(js, func(i, j int) bool { return js[i].Start < js[j].Start })
		for _, s := range js {
			switch {
			case strings.HasPrefix(s.Name, "scanner."):
				stages = append(stages, interval{s.Start, s.End})
				if firstStage < 0 {
					firstStage = s.Start
				}
				switch s.Name {
				case spanDiscover:
					first[s.Domain] = s.Start
				case spanFinalize:
					if at, ok := first[s.Domain]; ok {
						domainLat = append(domainLat, float64(s.End-at)/1e6)
					}
				case spanProbe:
					probes++
					if seenProbe[s.Key] {
						probeDup++
					}
					seenProbe[s.Key] = true
				case spanFetch:
					fetches++
					if seenFetch[s.Key] {
						fetchDup++
					}
					seenFetch[s.Key] = true
				}
			case strings.HasPrefix(s.Name, "http."):
				https = append(https, interval{s.Start, s.End})
				switch s.Name {
				case spanSubmit:
					submit = append(submit, ms(s.Dur()))
					accepted = s.End
				case spanPoll:
					done = s.Start // the last poll is the one that saw done
				case spanResults:
					lines += float64(s.N)
					resultsT += us(s.Dur())
				}
			}
		}
		if firstStage < 0 {
			firstStage = done
		}
		queue = append(queue, float64(firstStage-accepted)/1e6)
		jobWall = append(jobWall, ms(root.Dur()))

		// Priority sweep over the job's wall: inside the running window
		// [first stage call, done) it is a stage call or the shard gap;
		// outside, store time, then the job's own HTTP calls, then
		// nothing we can name.
		wall := []interval{{root.Start, root.End}}
		running := []interval{{firstStage, max(done, firstStage)}}
		stageU := clip(union(stages), root.Start, root.End)
		gap := subtract(running, stageU)
		covered := union(append(append([]interval(nil), stageU...), gap...))
		store := subtract(clip(storeAll, root.Start, root.End), covered)
		covered = union(append(covered, store...))
		http := subtract(clip(union(https), root.Start, root.End), covered)
		covered = union(append(covered, http...))
		wallSum += total(wall)
		stageT += total(stageU)
		gapT += total(gap)
		storeT += total(store)
		httpT += total(http)
		lostT += total(subtract(wall, covered))
	}
	httpErrs := 0
	for i := range m.runs {
		bytes += float64(len(m.runs[i].Body))
		httpErrs += m.runs[i].HTTPErrs
	}

	v["scanner.domain_p50_ms"] = domainLat.median()
	v["scanner.domain_p99_ms"] = domainLat.quantile(0.99)
	if probes > 0 {
		v["scanner.probe_dup_share"] = probeDup / probes
	}
	if fetches > 0 {
		v["scanner.fetch_dup_share"] = fetchDup / fetches
	}
	v["scansvc.submit_ms"] = submit.median()
	v["scansvc.queue_wait_ms"] = queue.median()
	v["scansvc.job_p50_ms"] = jobWall.median()
	v["scansvc.job_p95_ms"] = jobWall.quantile(0.95)
	if lines > 0 {
		v["scansvc.results_us_per_domain"] = resultsT / lines
		v["scansvc.results_bytes_per_domain"] = bytes / lines
	}
	v["scansvc.http_errors"] = float64(httpErrs)
	if ingest := durs(byName[spanIngest]); len(ingest) > 0 {
		v["tlsrpt.http_ingest_ms"] = ingest.median()
	}
	v["trace.spans"] = float64(len(spans))
	if wallSum > 0 {
		w := float64(wallSum)
		v["share.stage"] = float64(stageT) / w
		v["campaign.shard_gap_share"] = float64(gapT) / w
		v["share.store"] = float64(storeT) / w
		v["share.http"] = float64(httpT) / w
		v["trace.unaccounted_share"] = float64(lostT) / w
		v["share.stage_busy"] = stageBusy / (w / float64(time.Second))
	}
	return v
}
