// Command mtasts-campaign manages longitudinal scan campaigns: sharded,
// checkpointed weekly sweeps whose results persist in an append-only
// store and survive crashes (docs/CAMPAIGN.md). Weeks are scanned over
// the synthetic simnet world — the same deterministic ecosystem
// cmd/reproduce measures — so campaigns are reproducible end to end;
// live-socket campaigns compose the same engine with the mtasts-scan
// stack and are future work.
//
// Subcommands:
//
//	mtasts-campaign run    -dir store/ -id prod [-weeks 4] [-start-week 0]
//	                       [-shard-size 1024] [-workers 16] [-seed 1] [-scale 0.05]
//	                       [-metrics-addr host:port] [-events-out f]
//	mtasts-campaign resume -dir store/ -id prod [-weeks 4] ... (same flags as run)
//	mtasts-campaign status -dir store/ -id prod
//	mtasts-campaign diff   -dir store/ -id prod -old 0 -new 1 [-json]
//	mtasts-campaign export -dir store/ -id prod -week 0
//
// run scans weeks start-week..start-week+weeks-1, checkpointing every
// shard; resume is the same verb run over an existing store — shards
// whose checkpoint exists are skipped, so it continues exactly where a
// crash left off. status prints stored weeks, shard counts and
// store size. diff merge-joins two stored weeks; export writes one
// week's canonical snapshot (byte-identical across resumed and
// uninterrupted runs) to stdout.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"github.com/netsecurelab/mtasts/internal/campaign"
	"github.com/netsecurelab/mtasts/internal/experiments"
	"github.com/netsecurelab/mtasts/internal/scansvc"
	"github.com/netsecurelab/mtasts/internal/simnet"
	"github.com/netsecurelab/mtasts/internal/store"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run", "resume":
		err = cmdRun(os.Args[2:])
	case "status":
		err = cmdStatus(os.Args[2:])
	case "diff":
		err = cmdDiff(os.Args[2:])
	case "export":
		err = cmdExport(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mtasts-campaign:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: mtasts-campaign <run|resume|status|diff|export> [flags]

  run/resume  scan campaign weeks over the simnet world (resume skips
              checkpointed shards; the two verbs are aliases)
  status      print stored weeks, shard counts and store size
  diff        merge-join two stored weeks and print the delta
  export      write one week's canonical snapshot (JSONL) to stdout

run 'mtasts-campaign <subcommand> -h' for the subcommand's flags; see
docs/CAMPAIGN.md for the store format and runbook.`)
}

// openStore opens the campaign's disk store.
func openStore(dir string) (*store.Disk, error) {
	if dir == "" {
		return nil, fmt.Errorf("-dir is required (the campaign store directory)")
	}
	return store.OpenDisk(dir)
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	dir := fs.String("dir", "", "campaign store directory (created if missing)")
	id := fs.String("id", "campaign", "campaign ID inside the store")
	weeksN := fs.Int("weeks", 1, "number of consecutive weeks to scan")
	startWeek := fs.Int("start-week", 0, "first week index to scan")
	shardSize := fs.Int("shard-size", campaign.DefaultShardSize, "domains per checkpointed shard")
	workers := fs.Int("workers", 16, "workers per scan stage (DNS, policy fetch, MX probe) per shard")
	seed := fs.Int64("seed", 1, "simnet world seed")
	scale := fs.Float64("scale", 0.05, "simnet population scale (1.0 = paper scale)")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics on this host:port while running")
	eventsOut := fs.String("events-out", "", "append JSONL campaign events to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	s, err := openStore(*dir)
	if err != nil {
		return err
	}
	defer s.Close()

	tel, err := scansvc.StartTelemetry(scansvc.TelemetryConfig{
		MetricsAddr: *metricsAddr, EventsPath: *eventsOut,
	})
	if err != nil {
		return err
	}
	defer tel.Close()
	if tel.Server != nil {
		fmt.Fprintf(os.Stderr, "metrics: http://%s/metrics\n", tel.Server.Addr())
	}

	world := simnet.Generate(simnet.Config{Seed: *seed, Scale: *scale})
	for w := *startWeek; w < *startWeek+*weeksN; w++ {
		src, scan := experiments.SnapshotSource(world, experiments.WeekSnapshot(w))
		runner, err := scansvc.RunnerSpec{Workers: *workers}.Build(scan, tel.Obs, tel.Events)
		if err != nil {
			return err
		}
		eng := &campaign.Engine{
			Store:     s,
			Runner:    runner,
			ID:        *id,
			ShardSize: *shardSize,
			Obs:       tel.Obs,
			Events:    tel.Events,
		}
		if err := eng.RunWeek(context.Background(), w, src); err != nil {
			return err
		}
		sum, err := campaign.Aggregate(s, *id, w)
		if err != nil {
			return err
		}
		fmt.Printf("week %d: %d domains, %d misconfigured, %d delivery failures\n",
			w, sum.Domains, sum.Misconfigured, sum.DeliveryFailure)
	}
	return nil
}

func cmdStatus(args []string) error {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	dir := fs.String("dir", "", "campaign store directory")
	id := fs.String("id", "campaign", "campaign ID inside the store")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := openStore(*dir)
	if err != nil {
		return err
	}
	defer s.Close()
	st, err := campaign.ReadStatus(s, *id)
	if err != nil {
		return err
	}
	fmt.Printf("campaign %s: %d weeks done %v, %d records, %d store bytes, %d segments\n",
		*id, len(st.Meta.WeeksDone), st.Meta.WeeksDone, st.Records, st.StoreBytes, s.Segments())
	weeks := make([]int, 0, len(st.Weeks))
	for w := range st.Weeks {
		weeks = append(weeks, w)
	}
	sort.Ints(weeks)
	for _, w := range weeks {
		done := "partial"
		for _, dw := range st.Meta.WeeksDone {
			if dw == w {
				done = "done"
			}
		}
		fmt.Printf("  week %d: %d shards checkpointed (%s)\n", w, st.Weeks[w], done)
	}
	return nil
}

func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	dir := fs.String("dir", "", "campaign store directory")
	id := fs.String("id", "campaign", "campaign ID inside the store")
	oldW := fs.Int("old", 0, "earlier week index")
	newW := fs.Int("new", 1, "later week index")
	asJSON := fs.Bool("json", false, "emit the diff as JSON instead of text")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := openStore(*dir)
	if err != nil {
		return err
	}
	defer s.Close()
	d, err := campaign.ComputeDiff(s, *id, *oldW, *newW, nil)
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(d)
	}
	return d.WriteText(os.Stdout)
}

func cmdExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	dir := fs.String("dir", "", "campaign store directory")
	id := fs.String("id", "campaign", "campaign ID inside the store")
	week := fs.Int("week", 0, "week index to export")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := openStore(*dir)
	if err != nil {
		return err
	}
	defer s.Close()
	return campaign.WriteSnapshot(os.Stdout, s, *id, *week)
}
