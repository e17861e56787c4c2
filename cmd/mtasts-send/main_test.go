package main

import (
	"bytes"
	"context"
	"encoding/pem"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"

	"github.com/netsecurelab/mtasts/internal/loopnet"
	"github.com/netsecurelab/mtasts/internal/mtasts"
	"github.com/netsecurelab/mtasts/internal/policysrv"
	"github.com/netsecurelab/mtasts/internal/smtpd"
)

// sendSmoke gates the crash-restart smoke: it builds the real binary and
// exercises the durable cache across two separate processes. Run via
// make smoke-send.
var sendSmoke = flag.Bool("sendsmoke", false, "run the mtasts-send crash-restart smoke (builds the binary)")

// cacheStats matches the stats line run() prints to stderr.
var cacheStatsRe = regexp.MustCompile(
	`policy cache: entries=(\d+) hits=(\d+) misses=(\d+) stale_served=(\d+) refresh_failures=(\d+) collapsed=(\d+)`)

// startSmokeNet boots a loopback Internet serving the recipient domain
// smoke.test — the binary resolves mx.smoke.test through its DNS — and
// writes its CA where -ca can read it.
func startSmokeNet(t *testing.T) (n *loopnet.Net, caFile string) {
	t.Helper()
	n, err := loopnet.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := n.Close(); err != nil {
			t.Error(err)
		}
	})
	caFile = filepath.Join(t.TempDir(), "ca.pem")
	pemBytes := pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: n.CA.Cert.Raw})
	if err := os.WriteFile(caFile, pemBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddMX(smtpd.Behavior{AcceptMail: true}, "mx.smoke.test"); err != nil {
		t.Fatal(err)
	}
	n.AddDomain(loopnet.Domain{
		Name: "smoke.test", MX: []string{"mx.smoke.test"}, TXT: []string{"v=STSv1; id=20260808;"},
		Tenant: &policysrv.Tenant{Policy: mtasts.Policy{
			Version: mtasts.Version, Mode: mtasts.ModeEnforce,
			MaxAge: 86400, MXPatterns: []string{"mx.smoke.test"},
		}},
	})
	return n, caFile
}

// runSend invokes the built binary once and returns its stdout plus the
// parsed cache stats (entries, hits, misses, stale, refreshfail,
// collapsed).
func runSend(t *testing.T, bin string, n *loopnet.Net, caFile, cacheDir string) (string, []int) {
	t.Helper()
	cmd := exec.Command(bin,
		"-dns", n.DNS.Addr().String(),
		"-from", "alice@sender.test",
		"-to", "bob@smoke.test",
		"-smtp-port", strconv.Itoa(n.SMTPPort),
		"-https-port", strconv.Itoa(n.Policy.Port()),
		"-ca", caFile,
		"-cache-dir", cacheDir,
		"-timeout", "5s",
	)
	cmd.Stdin = bytes.NewReader([]byte("Subject: smoke\r\n\r\nhello\r\n"))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("mtasts-send failed: %v\nstdout: %s\nstderr: %s", err, stdout.String(), stderr.String())
	}
	m := cacheStatsRe.FindStringSubmatch(stderr.String())
	if m == nil {
		t.Fatalf("no cache stats line in stderr: %s", stderr.String())
	}
	stats := make([]int, 6)
	for i := range stats {
		n, err := strconv.Atoi(m[i+1])
		if err != nil {
			t.Fatal(err)
		}
		stats[i] = n
	}
	return stdout.String(), stats
}

// TestSmokeSend is the crash-restart drill of the durable policy cache:
// a cold send populates -cache-dir, the policy host is killed, and a
// second process delivers warm — enforcing the cached policy with zero
// policy fetches while the host is down.
func TestSmokeSend(t *testing.T) {
	if !*sendSmoke {
		t.Skip("run via make smoke-send (-sendsmoke not set)")
	}
	bin := filepath.Join(t.TempDir(), "mtasts-send")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	n, caFile := startSmokeNet(t)
	cacheDir := filepath.Join(t.TempDir(), "cache")

	// Cold process: discovers the record, fetches the policy, delivers.
	stdout, stats := runSend(t, bin, n, caFile, cacheDir)
	if !regexp.MustCompile(`delivered to mx\.smoke\.test via mta-sts`).MatchString(stdout) {
		t.Fatalf("cold run did not deliver via MTA-STS: %s", stdout)
	}
	if entries, hits, misses := stats[0], stats[1], stats[2]; entries != 1 || hits != 0 || misses != 1 {
		t.Fatalf("cold stats = %v, want entries=1 hits=0 misses=1", stats)
	}

	// Kill the policy host: from here, any refetch attempt would fail.
	if err := n.Policy.Close(); err != nil {
		t.Fatal(err)
	}

	// Warm process ("restart"): the TOFU state must come back from disk
	// and serve the delivery with zero policy fetches.
	stdout, stats = runSend(t, bin, n, caFile, cacheDir)
	if !regexp.MustCompile(`delivered to mx\.smoke\.test via mta-sts`).MatchString(stdout) {
		t.Fatalf("warm run did not deliver via MTA-STS: %s", stdout)
	}
	if entries, hits, misses := stats[0], stats[1], stats[2]; entries != 1 || hits != 1 || misses != 0 {
		t.Fatalf("warm stats = %v, want entries=1 hits=1 misses=0 (a miss means it tried to refetch)", stats)
	}
	if got := len(n.MX("mx.smoke.test").Messages()); got != 2 {
		t.Fatalf("inbox has %d messages, want 2", got)
	}
	fmt.Println("smoke-send: TOFU state survived restart; warm delivery enforced with zero refetches")
}
