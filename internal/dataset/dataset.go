// Package dataset provides the aggregation primitives of the measurement
// pipeline: labeled time series and result tables with TSV export.
package dataset

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Point is one sample of a series.
type Point struct {
	Label string
	Value float64
}

// Series is a named sequence of points (one per snapshot or bin).
type Series struct {
	Name   string
	Points []Point
}

// Values returns just the numeric values.
func (s Series) Values() []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.Value
	}
	return out
}

// Min and Max return the value range (0,0 for an empty series).
func (s Series) Min() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	m := s.Points[0].Value
	for _, p := range s.Points {
		if p.Value < m {
			m = p.Value
		}
	}
	return m
}

// Max returns the largest value.
func (s Series) Max() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	m := s.Points[0].Value
	for _, p := range s.Points {
		if p.Value > m {
			m = p.Value
		}
	}
	return m
}

// FromValues builds a series with labels from the labeler function.
func FromValues(name string, values []float64, label func(i int) string) Series {
	s := Series{Name: name, Points: make([]Point, len(values))}
	for i, v := range values {
		l := fmt.Sprintf("%d", i)
		if label != nil {
			l = label(i)
		}
		s.Points[i] = Point{Label: l, Value: v}
	}
	return s
}

// MonthLabel formats a snapshot time like the paper's axes ("12/23").
func MonthLabel(t time.Time) string {
	return fmt.Sprintf("%02d/%02d", int(t.Month()), t.Year()%100)
}

// Table is a rectangular result set.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// WriteTSV writes the table as tab-separated values.
func (t *Table) WriteTSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, strings.Join(t.Headers, "\t")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, strings.Join(row, "\t")); err != nil {
			return err
		}
	}
	return nil
}

// TSV returns the table in TSV form.
func (t *Table) TSV() string {
	var sb strings.Builder
	//lint:ignore errdrop writes to a strings.Builder cannot fail
	t.WriteTSV(&sb)
	return sb.String()
}
