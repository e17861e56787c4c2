package experiments

import (
	"fmt"
	"io"

	"github.com/netsecurelab/mtasts/internal/dataset"
	"github.com/netsecurelab/mtasts/internal/report"
)

// RunAll renders every table and figure to w and returns the shape-check
// rows for EXPERIMENTS.md.
func (e *Env) RunAll(w io.Writer) []report.ComparisonRow {
	var rows []report.ComparisonRow
	chart := func(title, ylabel string, series ...dataset.Series) {
		c := report.Chart{Title: title, YLabel: ylabel, Height: 10, Series: series}
		c.Write(w)
		fmt.Fprintln(w)
	}
	table := func(t *dataset.Table) {
		report.WriteTable(w, t)
		fmt.Fprintln(w)
	}

	// Table 1 + Figure 2/3: deployment.
	table(e.Table1())
	chart("Figure 2: MTA-STS deployment over time", "% of domains with MTA-STS records", e.Figure2()...)
	chart("Figure 3: adoption vs Tranco rank", "% of domains", e.Figure3())

	// Figure 4 and the headline §4.2 numbers.
	chart("Figure 4: misconfigured MTA-STS domains by category", "% of MTA-STS domains", e.Figure4()...)
	withRecord, mis, fails, rate := e.MisconfiguredTotals()
	fmt.Fprintf(w, "Final snapshot: %d MTA-STS domains, %d (%.1f%%) misconfigured, %d delivery failures\n\n",
		withRecord, mis, 100*rate, fails)
	rows = append(rows,
		cmpRow("§4.2 misconfigured share", "29.6%", fmt.Sprintf("%.1f%%", 100*rate),
			rate > 0.24 && rate < 0.35),
		cmpRow("§4.2 delivery failures", "~640 (scaled)", fmt.Sprint(fails),
			floatNear(float64(fails), 640*scaleOf(e), 0.5)),
	)

	table(e.RecordErrorBreakdown())
	table(e.ErrorTaxonomy())

	// Figure 5 and the self-vs-third comparison.
	selfPanel, thirdPanel := e.Figure5()
	chart("Figure 5 (top): self-managed policy server errors", "% of self-managed domains", selfPanel...)
	chart("Figure 5 (bottom): third-party policy server errors", "% of third-party domains", thirdPanel...)
	selfRate, thirdRate := e.PolicyErrorRates()
	rows = append(rows, cmpRow("§4.3.3 policy errors self vs third", "37.8% vs 4.9%",
		fmt.Sprintf("%.1f%% vs %.1f%%", 100*selfRate, 100*thirdRate),
		selfRate > 4*thirdRate && selfRate > 0.3 && thirdRate < 0.09))

	// Figure 6.
	mxSelf, mxThird := e.Figure6()
	chart("Figure 6 (top): self-managed MX cert errors", "% of domains", mxSelf...)
	chart("Figure 6 (bottom): third-party MX cert errors", "% of domains", mxThird...)
	sr, tr := e.MXInvalidRates()
	rows = append(rows, cmpRow("§4.3.4 invalid MX certs self vs third", "4.4% vs 1.0%",
		fmt.Sprintf("%.1f%% vs %.1f%%", 100*sr, 100*tr), sr > 2.5*tr && sr < 0.08))

	// Figures 7–10.
	chart("Figure 7: domains with invalid MX hosts", "% of MTA-STS domains", e.Figure7()...)
	chart("Figure 8: mx pattern / MX record mismatches", "% of MTA-STS domains", e.Figure8()...)
	f9 := e.Figure9()
	chart("Figure 9: mismatches explained by historical MX records", "% of mismatched domains", f9)
	if n := len(f9.Points); n > 1 {
		first, last := f9.Points[0].Value, f9.Points[n-1].Value
		rows = append(rows, cmpRow("Fig 9 outdated-policy share (end)", "63%",
			fmt.Sprintf("%.0f%%", last), last > 45 && last <= 80 && last > first))
	}
	f10 := e.Figure10()
	chart("Figure 10: inconsistency by provider arrangement", "% of domains", f10...)
	sameTotal, sameBad, diffTotal, diffBad := e.SameVsDifferentCounts()
	fmt.Fprintf(w, "Final snapshot: same-provider %d/%d inconsistent, different-provider %d/%d\n\n",
		sameBad, sameTotal, diffBad, diffTotal)
	rows = append(rows, cmpRow("§4.5 same vs different provider", "1 vs 640 domains",
		fmt.Sprintf("%d vs %d", sameBad, diffBad),
		diffBad > 20*maxi(sameBad, 1) || (sameBad <= 1 && diffBad > 0)))

	// Table 2.
	table(e.Table2())

	// Sender side, survey, TLSRPT.
	table(e.SenderSide())
	table(e.Figure11())
	table(e.SurveyFindings())
	top, bottom := e.Figure12()
	chart("Figure 12 (top): TLSRPT adoption among MX domains", "% of domains", top...)
	chart("Figure 12 (bottom): TLSRPT among MTA-STS domains", "% of MTA-STS domains", bottom...)

	// Disclosure.
	table(e.Disclosure())

	report.WriteComparison(w, "Shape checks vs paper", rows)
	return rows
}

func cmpRow(metric, paper, measured string, holds bool) report.ComparisonRow {
	return report.ComparisonRow{Metric: metric, Paper: paper, Measured: measured, Holds: holds}
}

func scaleOf(e *Env) float64 {
	s := e.World.Cfg.Scale
	if s <= 0 {
		return 1
	}
	return s
}

func floatNear(got, want, tol float64) bool {
	if want == 0 {
		return got == 0
	}
	d := got/want - 1
	if d < 0 {
		d = -d
	}
	return d <= tol
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// DefaultScale is the scale cmd/reproduce uses by default: full paper
// scale.
const DefaultScale = 1.0
