// Longitudinal: a miniature rerun of the paper's study. Generate a scaled
// synthetic ecosystem, scan it monthly over the component-scan period with
// the same pipeline the live scanner uses, and print the misconfiguration
// series (the Figure 4 analog) plus the final-snapshot breakdown.
//
//	go run ./examples/longitudinal [-scale 0.05] [-seed 7]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"github.com/netsecurelab/mtasts/internal/dataset"
	"github.com/netsecurelab/mtasts/internal/report"
	"github.com/netsecurelab/mtasts/internal/scanner"
	"github.com/netsecurelab/mtasts/internal/simnet"
)

func main() {
	scale := flag.Float64("scale", 0.05, "population scale (1.0 = paper scale)")
	seed := flag.Int64("seed", 7, "world seed")
	flag.Parse()

	world := simnet.Generate(simnet.Config{Seed: *seed, Scale: *scale})
	fmt.Printf("generated %d MTA-STS domains (scale %.2f)\n\n", len(world.Domains), *scale)

	series := map[scanner.Category][]float64{}
	var labels []string
	var last scanner.Summary
	for t := simnet.ComponentScanFirstIndex; t < simnet.Months; t++ {
		results := world.ScanSnapshot(t)
		s := scanner.Summarize(results)
		last = s
		labels = append(labels, dataset.MonthLabel(simnet.SnapshotTime(t)))
		for _, c := range []scanner.Category{
			scanner.CategoryDNSRecord, scanner.CategoryPolicy,
			scanner.CategoryMXCert, scanner.CategoryInconsistency,
		} {
			pct := 0.0
			if s.WithRecord > 0 {
				pct = 100 * float64(s.ByCategory[c]) / float64(s.WithRecord)
			}
			series[c] = append(series[c], pct)
		}
		fmt.Printf("  %s: %5d domains, %4d misconfigured (%.1f%%)\n",
			labels[len(labels)-1], s.WithRecord, s.Misconfigured,
			100*float64(s.Misconfigured)/float64(s.WithRecord))
	}
	fmt.Println()

	var chartSeries []dataset.Series
	for _, c := range []scanner.Category{
		scanner.CategoryDNSRecord, scanner.CategoryPolicy,
		scanner.CategoryMXCert, scanner.CategoryInconsistency,
	} {
		s := dataset.Series{Name: c.String()}
		for i, v := range series[c] {
			s.Points = append(s.Points, dataset.Point{Label: labels[i], Value: v})
		}
		chartSeries = append(chartSeries, s)
	}
	chart := report.Chart{
		Title:  "Misconfigured MTA-STS domains by category (Figure 4 analog)",
		YLabel: "% of MTA-STS domains",
		Height: 12,
		Series: chartSeries,
	}
	chart.Write(os.Stdout)

	fmt.Println()
	tbl := &dataset.Table{Title: "Final snapshot breakdown", Headers: []string{"metric", "count"}}
	tbl.AddRow("MTA-STS domains", last.WithRecord)
	tbl.AddRow("misconfigured", last.Misconfigured)
	// Rows in Figure 4's order, so two runs print the same table.
	for c := scanner.CategoryDNSRecord; c <= scanner.CategoryInconsistency; c++ {
		if n := last.ByCategory[c]; n > 0 {
			tbl.AddRow("  "+c.String(), n)
		}
	}
	stages := make([]string, 0, len(last.PolicyStageCounts))
	for stage := range last.PolicyStageCounts {
		stages = append(stages, stage)
	}
	sort.Strings(stages)
	for _, stage := range stages {
		tbl.AddRow("    policy stage "+stage, last.PolicyStageCounts[stage])
	}
	tbl.AddRow("delivery failures", last.DeliveryFailures)
	report.WriteTable(os.Stdout, tbl)
}
