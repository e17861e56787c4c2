package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
)

// PrometheusContentType is the text exposition format's content type.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// writePrometheus renders the snapshot in the Prometheus text
// exposition format (version 0.0.4): every counter and gauge becomes
// one sample, histograms become cumulative `_bucket{le="..."}` series
// plus `_sum`/`_count`, and progress trackers become a small gauge
// family under `progress_<name>_*`. Metric names are the catalog's
// dotted names with each non-[a-zA-Z0-9_:] byte mapped to '_', so
// `scan.mx.cert.name-mismatch` scrapes as
// `scan_mx_cert_name_mismatch`. Output is sorted by name, so two
// exports of the same snapshot are byte-identical.
func writePrometheus(w io.Writer, s Snapshot) error {
	bw := bufio.NewWriter(w)
	writeSample(bw, "uptime_seconds", "gauge", s.UptimeSeconds)
	for _, name := range sortedNames(s.Counters) {
		writeSample(bw, promName(name), "counter", float64(s.Counters[name]))
	}
	for _, name := range sortedNames(s.Gauges) {
		writeSample(bw, promName(name), "gauge", float64(s.Gauges[name]))
	}
	for _, name := range sortedNames(s.Histograms) {
		writeHistogram(bw, promName(name), s.Histograms[name])
	}
	for _, name := range sortedNames(s.Progress) {
		p := s.Progress[name]
		base := "progress_" + promName(name)
		writeSample(bw, base+"_total", "gauge", float64(p.Total))
		writeSample(bw, base+"_done", "gauge", float64(p.Done))
		writeSample(bw, base+"_in_flight", "gauge", float64(p.InFlight))
		writeSample(bw, base+"_rate_per_second", "gauge", p.RatePerSecond)
	}
	return bw.Flush()
}

// WritePrometheus writes the registry's snapshot in the Prometheus text
// format, for callers that want it without going through Handler.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return writePrometheus(w, r.Snapshot())
}

// promName maps a dotted catalog name onto the Prometheus name charset
// [a-zA-Z0-9_:], one '_' per rejected byte; a leading digit gains a '_'
// prefix.
func promName(name string) string {
	b := make([]byte, 0, len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b = append(b, c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b = append(b, '_')
			}
			b = append(b, c)
		default:
			b = append(b, '_')
		}
	}
	return string(b)
}

// promValue renders a sample value: integral floats print without an
// exponent or decimal point, everything else in Go's shortest form
// (which Prometheus parses, including "+Inf" and "NaN").
func promValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func writeSample(w *bufio.Writer, name, typ string, v float64) {
	fmt.Fprintf(w, "# TYPE %s %s\n%s %s\n", name, typ, name, promValue(v))
}

// writeHistogram renders one fixed-bucket histogram as the cumulative
// series Prometheus expects: bucket counts accumulate from the smallest
// bound up, and the +Inf bucket equals the total observation count.
func writeHistogram(w *bufio.Writer, name string, h HistogramSnapshot) {
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	cum := int64(0)
	for i, bound := range h.Bounds {
		cum += h.Buckets[i]
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, promValue(bound), cum)
	}
	if len(h.Buckets) > len(h.Bounds) {
		cum += h.Buckets[len(h.Bounds)]
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %s\n", name, promValue(h.Sum))
	fmt.Fprintf(w, "%s_count %d\n", name, h.Count)
}
