// Command mtasts-dataset materializes the synthetic ecosystem as release
// files — the analog of the dataset the paper publishes at
// mta-sts.netsecurelab.org: per-snapshot TSVs of DNS observations and scan
// results, the policy bodies, and a DNS zone file that the substrate
// servers (or external tooling) can load.
//
// Usage:
//
//	mtasts-dataset -out ./dataset [-scale 0.05] [-seed 1] [-snapshots 26,36]
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"github.com/netsecurelab/mtasts/internal/dataset"
	"github.com/netsecurelab/mtasts/internal/dnsmsg"
	"github.com/netsecurelab/mtasts/internal/dnszone"
	"github.com/netsecurelab/mtasts/internal/inconsistency"
	"github.com/netsecurelab/mtasts/internal/scanner"
	"github.com/netsecurelab/mtasts/internal/simnet"
)

func main() {
	out := flag.String("out", "dataset", "output directory")
	scale := flag.Float64("scale", 0.05, "population scale (1.0 = paper scale)")
	seed := flag.Int64("seed", 1, "world seed")
	snaps := flag.String("snapshots", "", "comma-separated snapshot indexes (default: all component scans)")
	flag.Parse()

	world := simnet.Generate(simnet.Config{Seed: *seed, Scale: *scale})

	var indexes []int
	if *snaps == "" {
		for t := simnet.ComponentScanFirstIndex; t < simnet.Months; t++ {
			indexes = append(indexes, t)
		}
	} else {
		for _, part := range strings.Split(*snaps, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 0 || n >= simnet.Months {
				fmt.Fprintf(os.Stderr, "bad snapshot index %q\n", part)
				os.Exit(2)
			}
			indexes = append(indexes, n)
		}
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	for _, t := range indexes {
		if err := writeSnapshot(world, t, *out); err != nil {
			fmt.Fprintf(os.Stderr, "snapshot %d: %v\n", t, err)
			os.Exit(1)
		}
	}
	fmt.Printf("wrote %d snapshot(s) for %d domains to %s\n", len(indexes), len(world.Domains), *out)
}

func writeSnapshot(world *simnet.World, t int, outDir string) error {
	label := simnet.SnapshotTime(t).Format("2006-01")
	dir := filepath.Join(outDir, label)
	if err := os.MkdirAll(filepath.Join(dir, "policies"), 0o755); err != nil {
		return err
	}

	// 1. DNS observations TSV + zone file.
	dnsTbl := &dataset.Table{Headers: []string{
		"domain", "tld", "mta_sts_txt", "mx_hosts", "policy_cname", "tlsrpt",
	}}
	zone := dnszone.New("test-dataset")
	results := make([]scanner.DomainResult, 0, len(world.Domains))
	now := simnet.SnapshotTime(t)
	for _, d := range world.Domains {
		a, ok := world.ArtifactsAt(d, t)
		if !ok {
			continue
		}
		dnsTbl.AddRow(d.Name, d.TLD, strings.Join(a.TXT, " | "),
			strings.Join(a.MXHosts, ","), a.PolicyCNAME,
			fmt.Sprintf("%v", world.TLSRPTAt(d, t)))

		// Zone entries (under a shared synthetic origin so one file loads
		// into the substrate DNS server).
		owner := d.Name + ".test-dataset"
		for _, txt := range a.TXT {
			zone.MustAdd(dnsmsg.RR{Name: "_mta-sts." + owner, Type: dnsmsg.TypeTXT,
				Class: dnsmsg.ClassIN, TTL: 300, Data: dnsmsg.NewTXT(txt)})
		}
		for i, mx := range a.MXHosts {
			zone.MustAdd(dnsmsg.RR{Name: owner, Type: dnsmsg.TypeMX, Class: dnsmsg.ClassIN,
				TTL: 300, Data: dnsmsg.MXData{Preference: uint16(10 * (i + 1)), Host: mx + ".test-dataset"}})
		}

		// Policy body on disk.
		if len(a.PolicyBody) > 0 {
			path := filepath.Join(dir, "policies", d.Name+".txt")
			if err := os.WriteFile(path, a.PolicyBody, 0o644); err != nil {
				return err
			}
		}
		results = append(results, scanner.ScanArtifacts(a, now))
	}
	if err := writeTable(filepath.Join(dir, "dns.tsv"), dnsTbl); err != nil {
		return err
	}
	zf, err := os.Create(filepath.Join(dir, "zone.txt"))
	if err != nil {
		return err
	}
	if _, err := zone.WriteTo(zf); err != nil {
		return errors.Join(err, zf.Close())
	}
	if err := zf.Close(); err != nil {
		return err
	}

	// 2. Scan results TSV.
	scanTbl := &dataset.Table{Headers: []string{
		"domain", "record_valid", "policy_ok", "policy_stage", "cert_problem",
		"mode", "mx_invalid", "mismatch", "delivery_failure",
	}}
	for i := range results {
		r := &results[i]
		invalid := 0
		for _, p := range r.MXProblems {
			if !p.Valid() {
				invalid++
			}
		}
		mismatch := ""
		if r.Mismatch.Kind != inconsistency.KindNone {
			mismatch = r.Mismatch.Kind.String()
		}
		scanTbl.AddRow(r.Domain, r.RecordValid, r.PolicyOK, r.PolicyStage.String(),
			r.PolicyCertProblem.String(), string(r.Policy.Mode), invalid, mismatch,
			r.DeliveryFailure())
	}
	if err := writeTable(filepath.Join(dir, "scan.tsv"), scanTbl); err != nil {
		return err
	}

	// 3. Snapshot summary.
	s := scanner.Summarize(results)
	sumTbl := &dataset.Table{Headers: []string{"metric", "value"}}
	sumTbl.AddRow("snapshot", label)
	sumTbl.AddRow("domains_with_record", s.WithRecord)
	sumTbl.AddRow("misconfigured", s.Misconfigured)
	sumTbl.AddRow("delivery_failures", s.DeliveryFailures)
	for cat := scanner.CategoryDNSRecord; cat <= scanner.CategoryInconsistency; cat++ {
		if n := s.ByCategory[cat]; n > 0 {
			sumTbl.AddRow("category_"+strings.ReplaceAll(cat.String(), " ", "_"), n)
		}
	}
	return writeTable(filepath.Join(dir, "summary.tsv"), sumTbl)
}

func writeTable(path string, t *dataset.Table) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return t.WriteTSV(f)
}
