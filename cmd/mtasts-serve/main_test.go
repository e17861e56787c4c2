package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/netsecurelab/mtasts/internal/experiments"
	"github.com/netsecurelab/mtasts/internal/simnet"
	"github.com/netsecurelab/mtasts/internal/tlsrpt"
)

// serveSmoke gates the service crash-restart smoke: it builds the real
// binary and drives it over HTTP through a kill, a torn log and a
// restart. Run via make smoke-serve.
var serveSmoke = flag.Bool("servesmoke", false, "run the mtasts-serve crash-restart smoke (builds the binary)")

// The smoke pins the world so the test process can compute the same
// domain population the service scans.
const (
	smokeSeed  = 11
	smokeScale = "0.02"
)

var listenRe = regexp.MustCompile(`mtasts-serve: listening on (\S+)`)

// serveProc is one running service process.
type serveProc struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	stderr *bytes.Buffer
	exited chan error
}

// startServe launches the binary on an ephemeral port and waits for the
// listening line on stderr.
func startServe(t *testing.T, bin string, extra ...string) *serveProc {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	cmd := exec.Command(bin, args...)
	pipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &serveProc{cmd: cmd, stderr: &bytes.Buffer{}, exited: make(chan error, 1)}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			p.stderr.WriteString(line + "\n")
			if m := listenRe.FindStringSubmatch(line); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
		p.exited <- cmd.Wait()
	}()
	select {
	case addr := <-addrCh:
		p.base = "http://" + addr
	case err := <-p.exited:
		t.Fatalf("mtasts-serve exited before listening: %v\n%s", err, p.stderr.String())
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("mtasts-serve never printed the listening line\n%s", p.stderr.String())
	}
	return p
}

// wait blocks for process exit and returns its exit code.
func (p *serveProc) wait(t *testing.T) int {
	t.Helper()
	select {
	case err := <-p.exited:
		if err == nil {
			return 0
		}
		var ee *exec.ExitError
		if ok := errorsAs(err, &ee); ok {
			return ee.ExitCode()
		}
		t.Fatalf("wait: %v\n%s", err, p.stderr.String())
	case <-time.After(60 * time.Second):
		p.cmd.Process.Kill()
		t.Fatalf("mtasts-serve did not exit\n%s", p.stderr.String())
	}
	return -1
}

// errorsAs avoids importing errors just for one assertion.
func errorsAs(err error, target **exec.ExitError) bool {
	ee, ok := err.(*exec.ExitError)
	if ok {
		*target = ee
	}
	return ok
}

// api drives one HTTP call against the service, failing the test on
// transport errors and unexpected statuses.
func api(t *testing.T, method, url, body string, wantStatus int) []byte {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s = %d, want %d: %s", method, url, resp.StatusCode, wantStatus, data)
	}
	return data
}

// waitJobDone polls the job endpoint until the job reports done.
func waitJobDone(t *testing.T, base, id string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var j struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(api(t, "GET", base+"/api/v1/jobs/"+id, "", 200), &j); err != nil {
			t.Fatal(err)
		}
		switch j.State {
		case "done":
			return
		case "failed", "canceled":
			t.Fatalf("job %s ended %s: %s", id, j.State, j.Error)
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
}

// smokeDomains recomputes the service's simnet population in-process so
// the test submits domains the world actually contains.
func smokeDomains() []string {
	world := simnet.Generate(simnet.Config{Seed: smokeSeed, Scale: 0.02})
	src, _ := experiments.SnapshotSource(world, experiments.WeekSnapshot(0))
	var names []string
	src(func(d string) error { //nolint:errcheck // slice source never fails
		names = append(names, d)
		return nil
	})
	sort.Strings(names)
	return names[:64] // 4 shards at -shard-size 16
}

// smokeReport renders a TLSRPT aggregate report attributing sessions to
// domain.
func smokeReport(t *testing.T, domain string) string {
	t.Helper()
	r := tlsrpt.NewReport("Smoke Org", "tls@smoke.example", "smoke-1",
		time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2026, 8, 2, 0, 0, 0, 0, time.UTC))
	r.AddSuccess(tlsrpt.PolicyTypeSTS, domain, 250)
	r.AddFailure(tlsrpt.PolicyTypeSTS, domain, tlsrpt.ResultCertificateExpired, "mx."+domain, 7)
	data, err := r.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestSmokeServe is the service's end-to-end crash smoke: a job is
// submitted over HTTP against the simnet world, Prometheus /metrics is
// scraped while the service runs, the process is SIGKILLed once the job
// is done and its log cut inside the job's result records — the torn
// tail a kill mid-write leaves — so a restarted process must resume the
// job from its shard checkpoints. A TLSRPT report is then ingested and
// joined into the results, and the final classifications must be
// byte-identical to a fresh uninterrupted run.
func TestSmokeServe(t *testing.T) {
	if !*serveSmoke {
		t.Skip("run via make smoke-serve (-servesmoke not set)")
	}
	bin := filepath.Join(t.TempDir(), "mtasts-serve")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	storeDir := filepath.Join(t.TempDir(), "store")
	domains := smokeDomains()
	submitBody, err := json.Marshal(map[string]any{"tenant": "smoke", "domains": domains})
	if err != nil {
		t.Fatal(err)
	}
	worldFlags := []string{"-store-dir", storeDir, "-seed", fmt.Sprint(smokeSeed),
		"-scale", smokeScale, "-shard-size", "16", "-workers", "8"}

	// Process 1 runs the job to done and is then killed.
	p1 := startServe(t, bin, worldFlags...)

	// Scrape Prometheus /metrics off the live service: negotiated by
	// Accept header, typed, and already carrying the scansvc series.
	req, err := http.NewRequest("GET", p1.base+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/plain;version=0.0.4")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("scraping /metrics: %v", err)
	}
	prom, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics Content-Type = %q, want the Prometheus exposition type", ct)
	}
	for _, want := range []string{"# TYPE scansvc_jobs_running gauge", "scansvc_jobs_submitted "} {
		if !strings.Contains(string(prom), want) {
			t.Fatalf("Prometheus scrape missing %q:\n%s", want, prom)
		}
	}

	var job struct {
		ID     string `json:"id"`
		Shards int    `json:"shards"`
	}
	if err := json.Unmarshal(api(t, "POST", p1.base+"/api/v1/jobs", string(submitBody), 202), &job); err != nil {
		t.Fatal(err)
	}
	if job.Shards != 4 {
		t.Fatalf("job has %d shards, want 4 (the cut tears the third)", job.Shards)
	}
	if mid := api(t, "GET", p1.base+"/metrics?format=prometheus", "", 200); !strings.Contains(string(mid), "scansvc_jobs_submitted 1") {
		t.Fatalf("scrape after submitting does not show the job:\n%s", mid)
	}
	waitJobDone(t, p1.base, job.ID)
	if err := p1.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	if code := p1.wait(t); code != -1 {
		t.Fatalf("killed process exit code = %d, want -1 (signaled)\n%s", code, p1.stderr.String())
	}

	// Cut the log inside the first result record of the third shard:
	// shards 0 and 1 stay checkpointed, the job's done state is gone.
	seg := filepath.Join(storeDir, "seg-000001.log")
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	var offs []int
	for off, key := 0, []byte("c/"+job.ID+"/w/0000/d/"); ; {
		i := bytes.Index(raw[off:], key)
		if i < 0 {
			break
		}
		offs = append(offs, off+i)
		off += i + len(key)
	}
	if len(offs) != len(domains) {
		t.Fatalf("log holds %d result records, want %d", len(offs), len(domains))
	}
	if err := os.Truncate(seg, int64(offs[len(domains)/2]+4)); err != nil {
		t.Fatal(err)
	}

	// Process 2: same store. Start must resume the torn job from its
	// checkpoints and run it to done.
	p2 := startServe(t, bin, worldFlags...)
	if prom := api(t, "GET", p2.base+"/metrics?format=prometheus", "", 200); !strings.Contains(string(prom), "scansvc_jobs_resumed 1") {
		t.Fatalf("restarted service did not resume the torn job:\n%s", prom)
	}
	waitJobDone(t, p2.base, job.ID)
	if !strings.Contains(p2.stderr.String()+string(api(t, "GET", p2.base+"/api/v1/jobs", "", 200)), job.ID) {
		t.Fatalf("restarted service does not know job %s", job.ID)
	}

	// Ingest a TLSRPT report for one scanned domain and fetch the joined
	// results: exactly one line must carry the report's evidence.
	target := domains[0]
	api(t, "POST", p2.base+"/api/v1/tlsrpt", smokeReport(t, target), 202)
	joined := api(t, "GET", p2.base+"/api/v1/jobs/"+job.ID+"/results?join=tlsrpt", "", 200)
	var lines, withRPT int
	sc := bufio.NewScanner(bytes.NewReader(joined))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line struct {
			Scan   json.RawMessage `json:"scan"`
			TLSRPT *struct {
				Success int64 `json:"success"`
				Failure int64 `json:"failure"`
			} `json:"tlsrpt"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("joined line does not parse: %v", err)
		}
		lines++
		if line.TLSRPT != nil {
			withRPT++
			if line.TLSRPT.Success != 250 || line.TLSRPT.Failure != 7 {
				t.Fatalf("joined TLSRPT = %+v", line.TLSRPT)
			}
		}
	}
	if lines != len(domains) || withRPT != 1 {
		t.Fatalf("joined results: %d lines (%d with TLSRPT), want %d lines and exactly 1 with TLSRPT",
			lines, withRPT, len(domains))
	}

	// The resumed job's plain results, then a graceful shutdown.
	resumed := api(t, "GET", p2.base+"/api/v1/jobs/"+job.ID+"/results", "", 200)
	if err := p2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := p2.wait(t); code != 0 {
		t.Fatalf("graceful shutdown exit code = %d\n%s", code, p2.stderr.String())
	}

	// Process 3: fresh store, same world — the uninterrupted reference
	// run. Its results must match the resumed run byte for
	// byte.
	refFlags := []string{"-store-dir", filepath.Join(t.TempDir(), "ref"), "-seed", fmt.Sprint(smokeSeed),
		"-scale", smokeScale, "-shard-size", "16", "-workers", "8"}
	p3 := startServe(t, bin, refFlags...)
	var refJob struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(api(t, "POST", p3.base+"/api/v1/jobs", string(submitBody), 202), &refJob); err != nil {
		t.Fatal(err)
	}
	waitJobDone(t, p3.base, refJob.ID)
	reference := api(t, "GET", p3.base+"/api/v1/jobs/"+refJob.ID+"/results", "", 200)
	if err := p3.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := p3.wait(t); code != 0 {
		t.Fatalf("reference shutdown exit code = %d\n%s", code, p3.stderr.String())
	}

	if !bytes.Equal(resumed, reference) {
		t.Fatalf("resumed results differ from uninterrupted run: %d vs %d bytes",
			len(resumed), len(reference))
	}
	fmt.Println("smoke-serve: job survived a kill and a torn log; resumed classifications byte-identical")
}
