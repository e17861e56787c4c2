// Command mtasts-serve runs the scanner as a long-lived service: a
// durable job queue over an on-disk store, an HTTP API to submit, list,
// cancel and stream scan jobs, an RFC 8460 TLSRPT ingestion endpoint
// whose reports join scan results per domain, and the observability
// endpoints (/metrics with JSON or Prometheus output, negotiated per
// request) on the same listener (docs/SERVICE.md).
//
// Jobs persist before they are acknowledged and resume from their shard
// checkpoints after a crash or restart, completing with results
// byte-identical to an uninterrupted run — the same guarantee
// mtasts-campaign makes for weekly sweeps, inherited from the same
// engine.
//
// By default jobs scan the deterministic simnet world (-seed/-scale),
// which makes a self-contained service for drills and CI; with -dns the
// service scans live sockets through the same resolver/retry stack as
// mtasts-scan.
//
// Usage:
//
//	mtasts-serve -store-dir jobs/ [-addr 127.0.0.1:8080]
//	             [-seed 1] [-scale 0.05] | [-dns 127.0.0.1:5353 [-rate 100]
//	             [-ca ca.pem] [-retries 3] [-retry-base 100ms] [-retry-budget 10000]]
//	             [-workers 16] [-stage-workers auto]
//	             [-shard-size 1024] [-max-jobs 2] [-max-queue 1024]
//	             [-tenant-rate 0] [-tenant-burst 0] [-events-out svc.jsonl]
//
// The service shuts down gracefully on SIGINT/SIGTERM: in-flight jobs
// checkpoint at the next shard boundary and resume on the next start,
// as they do after a kill (make smoke-serve).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/netsecurelab/mtasts/internal/campaign"
	"github.com/netsecurelab/mtasts/internal/experiments"
	"github.com/netsecurelab/mtasts/internal/obs"
	"github.com/netsecurelab/mtasts/internal/scanner"
	"github.com/netsecurelab/mtasts/internal/scansvc"
	"github.com/netsecurelab/mtasts/internal/simnet"
	"github.com/netsecurelab/mtasts/internal/store"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("mtasts-serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "HTTP listen address for the API and /metrics")
	storeDir := fs.String("store-dir", "", "durable job store directory (created if missing), required")
	seed := fs.Int64("seed", 1, "simnet world seed (ignored with -dns)")
	scale := fs.Float64("scale", 0.05, "simnet population scale (ignored with -dns)")
	dnsAddr := fs.String("dns", "", "scan live sockets through this DNS server (host:port) instead of the simnet world")
	rate := fs.Float64("rate", 100, "live: DNS queries per second (0 = unlimited)")
	httpsPort := fs.Int("https-port", 443, "live: policy server HTTPS port")
	smtpPort := fs.Int("smtp-port", 25, "live: MX SMTP port")
	timeout := fs.Duration("timeout", 10*time.Second, "live: per-probe timeout")
	retries := fs.Int("retries", 1, "live: attempts per network operation (1 = no retries)")
	retryBase := fs.Duration("retry-base", 100*time.Millisecond, "live: first retry backoff delay")
	retryBudget := fs.Int64("retry-budget", 0, "live: total retries allowed per job, each job its own budget (0 = unlimited)")
	caFile := fs.String("ca", "", "live: PEM file with extra trusted roots (e.g. mtasts-host -ca-out)")
	workers := fs.Int("workers", 16, "workers per scan stage (DNS, policy fetch, MX probe) per job")
	stageWorkersSpec := fs.String("stage-workers", "",
		"per-stage pool sizes (\"dns=16,fetch=8,probe=32\"; \"\" or \"auto\" sizes every stage from -workers)")
	shardSize := fs.Int("shard-size", campaign.DefaultShardSize, "domains per checkpointed shard")
	maxJobs := fs.Int("max-jobs", 2, "jobs scanning concurrently")
	maxQueue := fs.Int("max-queue", 1024, "dispatch queue capacity (submissions beyond it get 503)")
	tenantRate := fs.Float64("tenant-rate", 0, "per-tenant admission rate, domains per second (0 = unlimited)")
	tenantBurst := fs.Float64("tenant-burst", 0, "per-tenant admission burst, domains (defaults to -tenant-rate)")
	eventsOut := fs.String("events-out", "", "append JSONL service events to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *storeDir == "" {
		fmt.Fprintln(os.Stderr, "usage: mtasts-serve -store-dir <dir> [flags]")
		fs.Usage()
		return 2
	}

	st, err := store.OpenDisk(*storeDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mtasts-serve:", err)
		return 1
	}
	defer st.Close()

	// The service always has a registry — /metrics is part of the API
	// surface — so telemetry only needs the optional events file.
	tel, err := scansvc.StartTelemetry(scansvc.TelemetryConfig{EventsPath: *eventsOut})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mtasts-serve:", err)
		return 1
	}
	defer tel.Close()
	if tel.Obs == nil {
		tel.Obs = obs.NewRegistry()
	}

	var scan scanner.Scanner
	if *dnsAddr != "" {
		live, err := scansvc.LiveSpec{
			DNSAddr:   *dnsAddr,
			Rate:      *rate,
			HTTPSPort: *httpsPort,
			SMTPPort:  *smtpPort,
			Timeout:   *timeout,
			Retries:   *retries,
			RetryBase: *retryBase,
			CAFile:    *caFile,
		}.Build(tel.Obs, tel.Events)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mtasts-serve:", err)
			return 1
		}
		scan = live
	} else {
		world := simnet.Generate(simnet.Config{Seed: *seed, Scale: *scale})
		_, scan = experiments.SnapshotSource(world, experiments.WeekSnapshot(0))
	}

	svc := &scansvc.Service{
		Store:         st,
		Scan:          scan,
		Runner:        scansvc.RunnerSpec{Workers: *workers, StageWorkers: *stageWorkersSpec, RetryBudget: *retryBudget},
		Obs:           tel.Obs,
		Events:        tel.Events,
		MaxConcurrent: *maxJobs,
		MaxQueue:      *maxQueue,
		ShardSize:     *shardSize,
	}
	if *tenantRate > 0 {
		burst := *tenantBurst
		if burst <= 0 {
			burst = *tenantRate
		}
		svc.Tenants = scansvc.NewTenantLimiter(*tenantRate, burst)
	}
	if err := svc.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "mtasts-serve:", err)
		return 1
	}
	defer svc.Close()

	// One listener serves both surfaces: the job/TLSRPT API and the
	// observability endpoints (/metrics, /debug/scanprogress,
	// /debug/vars).
	mux := tel.Obs.NewServeMux()
	mux.Handle("/api/v1/", svc.Handler())
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mtasts-serve:", err)
		return 1
	}
	httpSrv := &http.Server{Handler: mux}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	// The listening line is the readiness signal scripts (and the smoke
	// test) key on; with -addr :0 it is also where the port appears.
	fmt.Fprintf(os.Stderr, "mtasts-serve: listening on %s\n", ln.Addr())

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)

	exit := 0
	select {
	case sig := <-sigs:
		fmt.Fprintf(os.Stderr, "mtasts-serve: %v, shutting down\n", sig)
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "mtasts-serve:", err)
		exit = 1
	}

	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "mtasts-serve:", err)
	}
	if err := svc.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "mtasts-serve:", err)
	}
	tel.WriteSummary(os.Stderr)
	return exit
}
