package dataset

import (
	"strings"
	"testing"
	"time"
)

func TestSeriesBasics(t *testing.T) {
	s := FromValues("test", []float64{1, 3, 2}, nil)
	if s.Min() != 1 || s.Max() != 3 {
		t.Errorf("min/max = %v/%v", s.Min(), s.Max())
	}
	v := s.Values()
	if len(v) != 3 || v[1] != 3 {
		t.Errorf("values = %v", v)
	}
	empty := Series{}
	if empty.Min() != 0 || empty.Max() != 0 {
		t.Error("empty series min/max should be 0")
	}
	labeled := FromValues("x", []float64{5}, func(i int) string { return "L" })
	if labeled.Points[0].Label != "L" {
		t.Error("labeler ignored")
	}
}

func TestMonthLabel(t *testing.T) {
	ts := time.Date(2023, 12, 1, 0, 0, 0, 0, time.UTC)
	if got := MonthLabel(ts); got != "12/23" {
		t.Errorf("MonthLabel = %q", got)
	}
}

func TestTableTSV(t *testing.T) {
	tbl := &Table{Headers: []string{"a", "b"}}
	tbl.AddRow("x", 1.5)
	tbl.AddRow(2, "y")
	tsv := tbl.TSV()
	want := "a\tb\nx\t1.50\n2\ty\n"
	if tsv != want {
		t.Errorf("TSV = %q, want %q", tsv, want)
	}
}

func TestTableWriteTSVPropagatesRows(t *testing.T) {
	tbl := &Table{Title: "x", Headers: []string{"h"}}
	for i := 0; i < 5; i++ {
		tbl.AddRow(i)
	}
	var sb strings.Builder
	if err := tbl.WriteTSV(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Count(sb.String(), "\n") != 6 {
		t.Errorf("lines = %d", strings.Count(sb.String(), "\n"))
	}
}
