package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"github.com/netsecurelab/mtasts/internal/leakcheck"
)

// substrateEnv marks a re-executed test binary as the substrate child:
// "<workload> <seed> <scale>".
const substrateEnv = "MTASTS_BENCH_SUBSTRATE"

// smokeScale is 1/50 of full size: untimed assertions only.
const smokeScale = 0.02

// TestMain serves the loopback Internet when this binary was started as
// a substrate child, and otherwise runs the tests with the goroutine
// leak check armed: every server, client and child the bench starts must
// be stopped by the time Run returns.
func TestMain(m *testing.M) {
	if spec := os.Getenv(substrateEnv); spec != "" {
		var workload string
		var seed int64
		var scale float64
		if _, err := fmt.Sscan(spec, &workload, &seed, &scale); err != nil {
			fmt.Fprintln(os.Stderr, "substrate child:", err)
			os.Exit(2)
		}
		if err := ServeSubstrate(workload, seed, scale, os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "substrate child:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	leakcheck.Main(m)
}

func testSubstrate(workload string, seed int64, scale float64) ([]string, []string) {
	return []string{os.Args[0]}, []string{fmt.Sprintf("%s=%s %d %g", substrateEnv, workload, seed, scale)}
}

func quickRun(t *testing.T, workload string, seed int64, endToEnd, layers bool) (*Result, string, string) {
	t.Helper()
	dir := t.TempDir()
	var log bytes.Buffer
	res, err := Run(Config{Workload: workload, Seed: seed, Scale: smokeScale, Quick: true,
		EndToEnd: endToEnd, Layers: layers, WorkDir: dir, Substrate: testSubstrate, Log: &log})
	if err != nil {
		t.Fatalf("%s seed %d: %v\n%s", workload, seed, err, log.String())
	}
	if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
		t.Fatalf("%s seed %d: failed %d of %d attempted\n%s", workload, seed, res.Failed, res.Attempted, log.String())
	}
	return res, log.String(), dir
}

var childPID = regexp.MustCompile(`substrate=child pid (\d+)`)

// TestSmoke runs all four workloads end to end and traced at 1/50 size:
// every catalogued metric is reported and printed by name, the oracle
// passes, the substrate child is reaped and the work directory holds
// nothing but the trace file. A second traced run of the same seed must
// repeat every exact-count metric, and a second seed must pass the
// oracle too.
func TestSmoke(t *testing.T) {
	for _, workload := range Workloads {
		t.Run(workload, func(t *testing.T) {
			res, log, dir := quickRun(t, workload, DefaultSeed, true, true)
			if !strings.Contains(strings.SplitN(log, "\n", 2)[0], "traffic crossed loopback") {
				t.Errorf("first output line does not state where traffic went:\n%s", log)
			}
			for _, m := range append(append([]Metric(nil), EndToEnd...), PerLayer...) {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("metric %s: reported %+v (present %v), want unit %s", m.Name, v, ok, m.Unit)
				}
				if !strings.Contains(log, m.Name+" ") {
					t.Errorf("metric %s not printed", m.Name)
				}
			}
			if len(res.Metrics) != len(EndToEnd)+len(PerLayer) {
				t.Errorf("%d metrics reported, catalogue has %d", len(res.Metrics), len(EndToEnd)+len(PerLayer))
			}
			for _, m := range EndToEnd {
				if res.Metrics[m.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must be positive", m.Name, res.Metrics[m.Name].Value)
				}
			}
			if s := res.Metrics["trace.unaccounted_share"].Value; s > 0.10 {
				t.Errorf("trace.unaccounted_share = %.3f, the ledger is not trusted above 0.10", s)
			}

			if pid := childPID.FindStringSubmatch(log); pid != nil {
				n, _ := strconv.Atoi(pid[1])
				if err := syscall.Kill(n, 0); !errors.Is(err, syscall.ESRCH) {
					t.Errorf("substrate child %d still exists after Run (kill -0: %v)", n, err)
				}
			} else if workload != ServiceJobs {
				t.Errorf("no substrate child in the first line:\n%s", log)
			}
			left, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range left {
				if e.Name() != "trace-"+workload+".jsonl" {
					t.Errorf("Run left %s behind in its work directory", e.Name())
				}
			}

			again, _, _ := quickRun(t, workload, DefaultSeed, false, true)
			for _, m := range PerLayer {
				if m.Exact && res.Metrics[m.Name].Value != again.Metrics[m.Name].Value {
					t.Errorf("exact count %s: %v then %v on the same seed", m.Name, res.Metrics[m.Name].Value, again.Metrics[m.Name].Value)
				}
			}
			a, b := res.Metrics["store.bytes_per_record"].Value, again.Metrics["store.bytes_per_record"].Value
			if d := (a - b) / a; d > 0.001 || d < -0.001 {
				// Job records carry wall-clock timestamps whose encoded
				// length varies by a few bytes; nothing else may.
				t.Errorf("store.bytes_per_record: %v then %v on the same seed", a, b)
			}

			quickRun(t, workload, 7, true, false)
		})
	}
}

// TestSameSeedSameWorld pins that a seed fully determines the inputs:
// byte-identical domain lists, report placement, zones and tenants.
func TestSameSeedSameWorld(t *testing.T) {
	for _, workload := range Workloads {
		a, err := Generate(workload, 3, smokeScale)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(workload, 3, smokeScale)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Generate(workload, 4, smokeScale)
		if err != nil {
			t.Fatal(err)
		}
		if a.Digest() != b.Digest() {
			t.Errorf("%s: two worlds of seed 3 differ", workload)
		}
		if a.Digest() == c.Digest() {
			t.Errorf("%s: seeds 3 and 4 gave the same world", workload)
		}
		if a.Live() {
			za, err := buildZones(a)
			if err != nil {
				t.Fatal(err)
			}
			zb, err := buildZones(b)
			if err != nil {
				t.Fatal(err)
			}
			if x, y := zoneText(za), zoneText(zb); x != y {
				t.Errorf("%s: two worlds of seed 3 serve different zones", workload)
			}
		}
	}
}

func zoneText(zs zoneSet) string {
	var sb strings.Builder
	origins := make([]string, 0, len(zs))
	for o := range zs {
		origins = append(origins, o)
	}
	sort.Strings(origins)
	for _, o := range origins {
		for _, name := range zs[o].Names() {
			for _, r := range zs[o].Records(name) {
				fmt.Fprintf(&sb, "%s %s\n", o, r)
			}
		}
	}
	return sb.String()
}

// TestDefectMix pins that every defect kind the issue lists is present
// in the populations that should carry it, whatever the seed.
func TestDefectMix(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		w, err := Generate(Selfhosted, seed, DefaultScale)
		if err != nil {
			t.Fatal(err)
		}
		counts := w.DefectCounts()
		for d := defNone; d < numDefects; d++ {
			if counts[d.String()] == 0 {
				t.Errorf("selfhosted seed %d: no %s domain", seed, d)
			}
		}
		defective := len(w.specs) - counts["none"]
		if share := float64(defective) / float64(len(w.specs)); share < 0.36 || share > 0.42 {
			t.Errorf("selfhosted seed %d: %.3f of the population is defective, want ~0.378", seed, share)
		}
		c, err := Generate(Census, seed, DefaultScale)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := c.DefectCounts()["none"], scaled(len(c.specs), censusAdoptShare, 1); got != want {
			t.Errorf("census seed %d: %d healthy adopters, want %d", seed, got, want)
		}
	}
}

// benchmarkJSON is the shape the harness prescribes for BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestCatalogueMatchesBenchmarkJSON holds BENCHMARK.json and the
// catalogue in metrics.go to each other, both ways, and to the harness's
// limits.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bj.Paths)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bj.RunSeconds)
	}
	if len(bj.Workloads) != len(Workloads) {
		t.Fatalf("%d workloads, want %d", len(bj.Workloads), len(Workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != Workloads[i] || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d = %+v, want %s with a one-line why of at most 200 characters", i, w, Workloads[i])
		}
	}
	if len(bj.EndToEnd) != len(EndToEnd) || len(bj.EndToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics, catalogue has %d (limit 16)", len(bj.EndToEnd), len(EndToEnd))
	}
	seen := make(map[string]bool)
	setup := false
	for i, m := range bj.EndToEnd {
		c := EndToEnd[i]
		if m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better || m.Bound != c.Bound {
			t.Errorf("end_to_end[%d] = %+v, catalogue has %+v", i, m, c)
		}
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end[%d] = %+v breaks the harness's limits", i, m)
		}
		seen[m.Name] = true
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric")
	}
	if len(bj.PerLayer) != len(PerLayer) || len(bj.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics, catalogue has %d (limit 128)", len(bj.PerLayer), len(PerLayer))
	}
	for i, m := range bj.PerLayer {
		c := PerLayer[i]
		if m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better {
			t.Errorf("per_layer[%d] = %+v, catalogue has %+v", i, m, c)
		}
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("per_layer[%d] = %+v breaks the harness's limits", i, m)
		}
		seen[m.Name] = true
	}
}

// TestCompare pins the repeatability tool's verdicts.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, tput, shards float64) string {
		r := Result{Workload: Census, Seed: 1, Scale: DefaultScale, Correct: true, Attempted: 1, Metrics: map[string]Value{
			"domains_per_s":   {Value: tput, Unit: "1/s"},
			"campaign.shards": {Value: shards, Unit: "count"},
		}}
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 1000, 3)
	bound := 0.0
	for _, m := range EndToEnd {
		if m.Name == "domains_per_s" {
			bound = m.Bound
		}
	}
	for _, tc := range []struct {
		name   string
		tput   float64
		shards float64
		ok     bool
	}{
		{"same", 1000, 3, true},
		{"within", 1000 * (1 - bound/2), 3, true},
		{"faster", 2000, 3, true},
		{"slower", 1000 * (1 - bound - 0.01), 3, false},
		{"count", 1000, 4, false},
	} {
		var out bytes.Buffer
		ok, err := Compare(&out, base, write(tc.name+".json", tc.tput, tc.shards))
		if err != nil || ok != tc.ok {
			t.Errorf("%s: Compare = %v, %v; want %v\n%s", tc.name, ok, err, tc.ok, out.String())
		}
	}
}

// TestIntervals pins the sweep arithmetic the wall-time accounting
// rests on.
func TestIntervals(t *testing.T) {
	u := union([]interval{{5, 7}, {1, 3}, {2, 4}, {7, 7}})
	if fmt.Sprint(u) != "[{1 4} {5 7}]" {
		t.Errorf("union = %v", u)
	}
	if got := subtract([]interval{{0, 10}}, u); fmt.Sprint(got) != "[{0 1} {4 5} {7 10}]" {
		t.Errorf("subtract = %v", got)
	}
	if got := clip(u, 2, 6); fmt.Sprint(got) != "[{2 4} {5 6}]" || total(got) != 3 {
		t.Errorf("clip = %v", got)
	}
}
