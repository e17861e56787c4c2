// Command reproduce regenerates every table and figure of the paper from
// the synthetic ecosystem and prints them, together with paper-vs-measured
// shape checks. With -write-experiments it also rewrites EXPERIMENTS.md.
//
// With -metrics-addr it serves live JSON metrics while the (potentially
// long, at -scale 1.0) run executes; with -events-out it appends one
// JSONL event per experiment. Either flag also prints an end-of-run
// metric summary to stderr.
//
// Usage:
//
//	reproduce [-scale 1.0] [-seed 1] [-experiment all|table1|figure2|...]
//	          [-write-experiments EXPERIMENTS.md]
//	          [-metrics-addr 127.0.0.1:9090] [-events-out runs.jsonl]
//
// The robustness experiment (-experiment robustness) is different: it
// scans a fleet of healthy loopback deployments through a seeded fault
// plan (-fault-* flags, see docs/ROBUSTNESS.md) and exits nonzero if any
// domain is misclassified with retries enabled or if two same-seed runs
// diverge, which makes it a CI smoke for transient-failure handling.
//
// The longitudinal experiment (-experiment longitudinal, with -weeks,
// -shard-size and -campaign-dir) runs the campaign engine over N
// consecutive weekly sweeps of the synthetic world and renders trend and
// churn tables from the stored snapshots (docs/CAMPAIGN.md).
//
// The sender enforcement matrix (-experiment sendertest, optionally
// restricted with -attack) mounts every registered adversary attack on
// loopback worlds and drives every sender behavior × policy mode through
// the live delivery stack (docs/ADVERSARY.md). It exits nonzero on any
// model mismatch, enforce-mode downgrade, unreported testing-mode
// violation, or same-seed divergence, which makes it the CI smoke for
// downgrade resistance.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/netsecurelab/mtasts/internal/dataset"
	"github.com/netsecurelab/mtasts/internal/experiments"
	"github.com/netsecurelab/mtasts/internal/faults"
	"github.com/netsecurelab/mtasts/internal/report"
	"github.com/netsecurelab/mtasts/internal/scanner"
	"github.com/netsecurelab/mtasts/internal/scansvc"
	"github.com/netsecurelab/mtasts/internal/simnet"
	"github.com/netsecurelab/mtasts/internal/store"
)

func main() {
	scale := flag.Float64("scale", experiments.DefaultScale,
		"population scale (1.0 = the paper's 68K MTA-STS domains)")
	seed := flag.Int64("seed", 1, "world seed")
	which := flag.String("experiment", "all",
		"experiment to run: all, table1, table2, figure2..figure12, records, errors, senders, survey, disclosure, robustness, longitudinal, sendertest")
	writeExp := flag.String("write-experiments", "", "write EXPERIMENTS.md-style shape report to this file")
	retries := flag.Int("retries", 4, "robustness: attempts per network operation")
	faultSeed := flag.Int64("fault-seed", 0, "robustness: fault plan seed (0 = use -seed)")
	faultDomains := flag.Int("fault-domains", 12, "robustness: healthy domains to provision")
	faultDNSLoss := flag.Float64("fault-dns-loss", 0.10, "robustness: DNS query drop rate")
	faultDNSServFail := flag.Float64("fault-dns-servfail", 0.05, "robustness: DNS SERVFAIL rate")
	faultDNSRefuse := flag.Float64("fault-dns-refuse", 0.03, "robustness: DNS REFUSED rate")
	faultDNSTruncate := flag.Float64("fault-dns-truncate", 0.05, "robustness: DNS truncation rate (UDP only)")
	faultConnReset := flag.Float64("fault-conn-reset", 0.08, "robustness: pre-greeting/mid-handshake reset rate")
	faultLatency := flag.Duration("fault-latency", 2*time.Millisecond, "robustness: injected latency")
	faultLatencyRate := flag.Float64("fault-latency-rate", 0.20, "robustness: injected latency rate")
	stageWorkersSpec := flag.String("stage-workers", "",
		"robustness: stage pool sizes of the concurrent run (\"dns=4,fetch=2,probe=8\"; \"\" or \"auto\" = 4 per stage)")
	weeks := flag.Int("weeks", 6, "longitudinal: consecutive weekly sweeps to run")
	shardSize := flag.Int("shard-size", 256, "longitudinal: domains per campaign shard")
	campaignDir := flag.String("campaign-dir", "",
		"longitudinal: persist the campaign store in this directory (default: in-memory)")
	attack := flag.String("attack", "all",
		"sendertest: run only this attack from the adversary registry (\"all\" = every attack)")
	metricsAddr := flag.String("metrics-addr", "",
		"serve /metrics and /debug/scanprogress on this host:port while running")
	eventsOut := flag.String("events-out", "", "append JSONL experiment events to this file")
	flag.Parse()

	tel, err := scansvc.StartTelemetry(scansvc.TelemetryConfig{
		MetricsAddr: *metricsAddr, EventsPath: *eventsOut,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer tel.Close()
	reg, sink := tel.Obs, tel.Events
	if tel.Server != nil {
		fmt.Fprintf(os.Stderr, "metrics: http://%s/metrics\n", tel.Server.Addr())
	}

	// The robustness experiment runs against live loopback sockets, not
	// the synthetic world — handle it before paying for world generation.
	// It doubles as the CI fault-injection smoke: a misclassified domain
	// or a nondeterministic same-seed rerun is a nonzero exit.
	if strings.ToLower(*which) == "robustness" {
		fseed := *faultSeed
		if fseed == 0 {
			fseed = *seed
		}
		sw, err := scanner.ParseStageWorkers(*stageWorkersSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		cfg := experiments.RobustnessConfig{
			Domains:      *faultDomains,
			Seed:         fseed,
			MaxAttempts:  *retries,
			Obs:          reg,
			StageWorkers: sw,
			Plan: faults.Plan{
				Seed:        fseed,
				DNSLoss:     *faultDNSLoss,
				DNSServFail: *faultDNSServFail,
				DNSRefuse:   *faultDNSRefuse,
				DNSTruncate: *faultDNSTruncate,
				ConnReset:   *faultConnReset,
				Latency:     *faultLatency,
				LatencyRate: *faultLatencyRate,
			},
		}
		start := time.Now()
		rep, err := experiments.RunRobustness(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		report.WriteTable(os.Stdout, rep.Table())
		sink.Emit("experiment.done", map[string]any{
			"experiment":    "robustness",
			"seed":          fseed,
			"duration_ms":   float64(time.Since(start).Microseconds()) / 1000,
			"deterministic": rep.Deterministic,
			"misclassified": len(rep.Misclassified()),
		})
		if reg != nil {
			fmt.Fprintln(os.Stderr)
			tel.WriteSummary(os.Stderr)
		}
		if !rep.Deterministic {
			fmt.Fprintln(os.Stderr, "FAIL: same-seed fault runs diverged")
			os.Exit(1)
		}
		if mis := rep.Misclassified(); len(mis) > 0 {
			fmt.Fprintf(os.Stderr, "FAIL: %d healthy domains misclassified with retries on:\n  %s\n",
				len(mis), strings.Join(mis, "\n  "))
			os.Exit(1)
		}
		fmt.Println("robustness: PASS (zero misclassifications, deterministic)")
		return
	}

	// The sender enforcement matrix also runs against live loopback
	// sockets — one adversarial world per attack — so it too skips world
	// generation. It is the CI smoke for downgrade resistance: any model
	// mismatch, enforce-mode downgrade, unreported testing-mode
	// violation, or same-seed divergence is a nonzero exit.
	if strings.ToLower(*which) == "sendertest" {
		cfg := experiments.AttackMatrixConfig{Seed: *seed}
		if a := strings.ToLower(*attack); a != "all" && a != "" {
			cfg.Attacks = []string{a}
		}
		start := time.Now()
		rep, err := experiments.RunAttackMatrix(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		report.WriteTable(os.Stdout, rep.Table())
		sink.Emit("experiment.done", map[string]any{
			"experiment":    "sendertest",
			"seed":          *seed,
			"duration_ms":   float64(time.Since(start).Microseconds()) / 1000,
			"deterministic": rep.Deterministic,
			"mismatches":    len(rep.Mismatches),
			"downgrades":    len(rep.Downgrades),
		})
		failed := false
		fail := func(header string, lines []string) {
			if len(lines) == 0 {
				return
			}
			failed = true
			fmt.Fprintf(os.Stderr, "FAIL: %s:\n  %s\n", header, strings.Join(lines, "\n  "))
		}
		fail("live cells disagree with the sender model", rep.Mismatches)
		fail("enforce-mode downgrades under attack", rep.Downgrades)
		fail("testing-mode delivery/reporting violations", rep.TestingHoldbacks)
		fail("canonical sender disagrees with the attack registry", rep.RegistryMismatches)
		if !rep.Deterministic {
			failed = true
			fmt.Fprintln(os.Stderr, "FAIL: same-seed attack-matrix runs diverged")
		}
		if failed {
			os.Exit(1)
		}
		fmt.Printf("sendertest: PASS (%d cells, zero downgrades, deterministic)\n", len(rep.Cells))
		return
	}

	genSpan := reg.StartSpan("reproduce.generate_world")
	env := experiments.NewEnv(simnet.Config{Seed: *seed, Scale: *scale})
	genSpan.End()
	out := os.Stdout

	chart := func(title, ylabel string, series ...dataset.Series) {
		c := report.Chart{Title: title, YLabel: ylabel, Height: 10, Series: series}
		c.Write(out)
	}

	expName := strings.ToLower(*which)
	expStart := time.Now()
	defer func() {
		took := time.Since(expStart)
		if reg != nil {
			reg.Histogram("reproduce.experiment.seconds", nil).ObserveDuration(took)
			reg.Counter("reproduce.experiments.total").Inc()
		}
		sink.Emit("experiment.done", map[string]any{
			"experiment":  expName,
			"scale":       *scale,
			"seed":        *seed,
			"duration_ms": float64(took.Microseconds()) / 1000,
		})
		if reg != nil {
			fmt.Fprintln(os.Stderr)
			tel.WriteSummary(os.Stderr)
		}
	}()

	switch expName {
	case "all":
		rows := env.RunAll(out)
		if *writeExp != "" {
			if err := writeExperiments(*writeExp, env, rows); err != nil {
				fmt.Fprintln(os.Stderr, "writing experiments report:", err)
				os.Exit(1)
			}
			fmt.Fprintln(out, "wrote", *writeExp)
		}
	case "table1":
		report.WriteTable(out, env.Table1())
	case "table2":
		report.WriteTable(out, env.Table2())
	case "figure2":
		chart("Figure 2: MTA-STS deployment", "% of domains", env.Figure2()...)
	case "figure3":
		chart("Figure 3: adoption vs Tranco rank", "% of domains", env.Figure3())
	case "figure4":
		chart("Figure 4: misconfigurations by category", "% of MTA-STS domains", env.Figure4()...)
	case "figure5":
		selfPanel, thirdPanel := env.Figure5()
		chart("Figure 5 (top): self-managed", "% of domains", selfPanel...)
		chart("Figure 5 (bottom): third-party", "% of domains", thirdPanel...)
	case "figure6":
		selfPanel, thirdPanel := env.Figure6()
		chart("Figure 6 (top): self-managed", "% of domains", selfPanel...)
		chart("Figure 6 (bottom): third-party", "% of domains", thirdPanel...)
	case "figure7":
		chart("Figure 7: invalid MX hosts", "% of MTA-STS domains", env.Figure7()...)
	case "figure8":
		chart("Figure 8: mx pattern mismatches", "% of MTA-STS domains", env.Figure8()...)
	case "figure9":
		chart("Figure 9: outdated policies", "% of mismatched domains", env.Figure9())
	case "figure10":
		chart("Figure 10: same vs different provider", "% of domains", env.Figure10()...)
	case "figure11":
		report.WriteTable(out, env.Figure11())
	case "figure12":
		top, bottom := env.Figure12()
		chart("Figure 12 (top): TLSRPT of MX domains", "%", top...)
		chart("Figure 12 (bottom): TLSRPT of MTA-STS domains", "%", bottom...)
	case "records":
		report.WriteTable(out, env.RecordErrorBreakdown())
	case "errors":
		report.WriteTable(out, env.ErrorTaxonomy())
	case "senders":
		report.WriteTable(out, env.SenderSide())
	case "survey":
		report.WriteTable(out, env.SurveyFindings())
		report.WriteTable(out, env.Figure11())
	case "disclosure":
		report.WriteTable(out, env.Disclosure())
	case "longitudinal":
		var st store.Store
		if *campaignDir != "" {
			disk, err := store.OpenDisk(*campaignDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer disk.Close()
			st = disk
		}
		rep, err := experiments.RunLongitudinal(context.Background(), experiments.LongitudinalConfig{
			World:     env.World,
			Weeks:     *weeks,
			Store:     st,
			ShardSize: *shardSize,
			Obs:       reg,
			Events:    sink,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		report.WriteTable(out, rep.TrendTable())
		report.WriteTable(out, rep.ChurnTable())
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *which)
		flag.Usage()
		os.Exit(2)
	}
}

func writeExperiments(path string, env *experiments.Env, rows []report.ComparisonRow) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintln(f, "# EXPERIMENTS — paper vs measured (generated by cmd/reproduce)")
	fmt.Fprintln(f)
	fmt.Fprintf(f, "World: seed=%d scale=%.2f (%d MTA-STS domains at the final snapshot).\n",
		env.World.Cfg.Seed, env.World.Cfg.Scale, env.World.AdoptedCount(simnet.Months-1, ""))
	fmt.Fprintln(f, "Regenerate with `go run ./cmd/reproduce -write-experiments EXPERIMENTS.md`.")
	fmt.Fprintln(f)

	fmt.Fprintln(f, "## Shape checks")
	fmt.Fprintln(f)
	fmt.Fprintln(f, "Absolute numbers are not expected to match (the substrate is a synthetic")
	fmt.Fprintln(f, "ecosystem, not the authors' vantage points); each check pins the paper's")
	fmt.Fprintln(f, "qualitative result — who wins, by what factor, which direction trends move.")
	fmt.Fprintln(f)
	fmt.Fprintln(f, "| metric | paper | measured | shape holds |")
	fmt.Fprintln(f, "|---|---|---|---|")
	for _, r := range rows {
		holds := "yes"
		if !r.Holds {
			holds = "**NO**"
		}
		fmt.Fprintf(f, "| %s | %s | %s | %s |\n", r.Metric, r.Paper, r.Measured, holds)
	}
	fmt.Fprintln(f)

	fmt.Fprintln(f, "## Key regenerated artifacts")
	fmt.Fprintln(f)
	fmt.Fprintln(f, report.MarkdownTable(env.Table1()))
	fmt.Fprintln(f, report.MarkdownTable(env.Table2()))
	fmt.Fprintln(f, report.MarkdownTable(env.RecordErrorBreakdown()))
	fmt.Fprintln(f, report.MarkdownTable(env.ErrorTaxonomy()))
	fmt.Fprintln(f, report.MarkdownTable(env.SenderSide()))
	fmt.Fprintln(f, report.MarkdownTable(env.Figure11()))
	fmt.Fprintln(f, report.MarkdownTable(env.SurveyFindings()))
	fmt.Fprintln(f, report.MarkdownTable(env.Disclosure()))

	fmt.Fprintln(f, "## Figure index")
	fmt.Fprintln(f)
	fmt.Fprintln(f, "Every figure renders as an ASCII chart via `go run ./cmd/reproduce"+
		" -experiment figureN`; one benchmark per table/figure lives in bench_test.go.")
	fmt.Fprintln(f, "See DESIGN.md §3 for the experiment-to-module index.")
	return nil
}
