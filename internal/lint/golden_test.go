package lint

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// fixtureLoader is shared by every fixture load in the test binary, so
// the fixtures' imports (the stdlib from source, module packages) are
// type-checked once rather than once per load.
var fixtureLoader = sync.OnceValues(func() (*loader, error) {
	abs, err := filepath.Abs("../..")
	if err != nil {
		return nil, err
	}
	modPath, err := ModulePath(abs)
	if err != nil {
		return nil, err
	}
	return newLoader(abs, modPath), nil
})

// loadFixture type-checks testdata/src/<fixture>, _test.go files
// included, as if it had importPath, and returns it as a one-package
// Module. The fixture never enters the loader's package cache, since
// fixtures borrow real import paths; only its imports do.
func loadFixture(t *testing.T, fixture, importPath string) *Module {
	t.Helper()
	l, err := fixtureLoader()
	if err != nil {
		t.Fatal(err)
	}
	p, err := l.checkDir(filepath.Join("testdata", "src", fixture), importPath, true)
	if err != nil {
		t.Fatalf("load fixture %s as %s: %v", fixture, importPath, err)
	}
	return &Module{Path: l.modPath, Dir: l.moduleDir, Fset: l.fset, Packages: []*Package{p}}
}

// want is one expectation parsed from a fixture's `// want "substring"`
// comment: the finding must land on that file and line, and its message
// must contain the substring.
type want struct {
	file   string // base name
	line   int
	substr string
}

const wantMarker = `// want "`

func parseWants(t *testing.T, dir string) []want {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []want
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(b), "\n") {
			idx := strings.Index(line, wantMarker)
			if idx < 0 {
				continue
			}
			rest := line[idx+len(wantMarker):]
			end := strings.IndexByte(rest, '"')
			if end < 0 {
				t.Fatalf("%s:%d: unterminated want comment", e.Name(), i+1)
			}
			wants = append(wants, want{file: e.Name(), line: i + 1, substr: rest[:end]})
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want comments", dir)
	}
	return wants
}

// lintFixture loads testdata/src/<fixture> under importPath, runs the
// analyzer, and diffs the findings against the fixture's want comments
// in both directions.
func lintFixture(t *testing.T, fixture, importPath string, a *Analyzer) {
	t.Helper()
	m := loadFixture(t, fixture, importPath)
	findings := Run(m, []*Analyzer{a})
	wants := parseWants(t, filepath.Join("testdata", "src", fixture))

	matched := make([]bool, len(findings))
	for _, w := range wants {
		found := false
		for i, f := range findings {
			if matched[i] || filepath.Base(f.File) != w.file || f.Line != w.line {
				continue
			}
			if !strings.Contains(f.Message, w.substr) {
				t.Errorf("%s:%d: got %q, want message containing %q", w.file, w.line, f.Message, w.substr)
			}
			matched[i] = true
			found = true
			break
		}
		if !found {
			t.Errorf("%s:%d: no %s finding (want message containing %q)", w.file, w.line, a.Name, w.substr)
		}
	}
	for i, f := range findings {
		if !matched[i] {
			t.Errorf("unexpected finding: %s", f)
		}
	}
}

func TestErrDropGolden(t *testing.T) {
	lintFixture(t, "errdrop", "github.com/netsecurelab/mtasts/internal/fixerrdrop", ErrDrop())
}

func TestCtxPassGolden(t *testing.T) {
	lintFixture(t, "ctxpass", "github.com/netsecurelab/mtasts/internal/fixctx", CtxPass())
}

func TestObsNamesGolden(t *testing.T) {
	lintFixture(t, "obsnames", "github.com/netsecurelab/mtasts/internal/fixobs",
		ObsNames(filepath.Join("testdata", "obsdocs.md")))
}

func TestDeadValueGolden(t *testing.T) {
	lintFixture(t, "deadvalue", "github.com/netsecurelab/mtasts/internal/fixdead", DeadValue())
}

func TestSleepLoopGolden(t *testing.T) {
	lintFixture(t, "sleeploop", "github.com/netsecurelab/mtasts/internal/fixsleep", SleepLoop())
}

func TestSemTimeGolden(t *testing.T) {
	lintFixture(t, "semtime", "github.com/netsecurelab/mtasts/internal/fixsemtime", SemTime())
}

// TestSemTimeScope pins the analyzer to internal/ packages that import
// internal/clock: the goroleak fixture reads the wall clock but imports
// no clock, and commands are out of scope.
func TestSemTimeScope(t *testing.T) {
	for fixture, importPath := range map[string]string{
		"goroleak": "github.com/netsecurelab/mtasts/internal/fixgoroleak",
		"semtime":  "github.com/netsecurelab/mtasts/cmd/fixsemtime",
	} {
		m := loadFixture(t, fixture, importPath)
		if findings := Run(m, []*Analyzer{SemTime()}); len(findings) != 0 {
			t.Errorf("%s as %s: want no findings, got %v", fixture, importPath, findings)
		}
	}
}

func TestCodesGolden(t *testing.T) {
	lintFixture(t, "codes", "github.com/netsecurelab/mtasts/internal/smtpclient/fixcodes", Codes())
}

func TestPkgDocGolden(t *testing.T) {
	lintFixture(t, "pkgdoc", "github.com/netsecurelab/mtasts/internal/fixpkgdoc", PkgDoc())
}

func TestPkgDocMissingGolden(t *testing.T) {
	lintFixture(t, "pkgdocmissing", "github.com/netsecurelab/mtasts/internal/fixpkgdocmissing", PkgDoc())
}

// TestCodesScope pins the analyzer to the errtax-producing packages:
// the same fixture is quiet under any other import path.
func TestCodesScope(t *testing.T) {
	for _, importPath := range []string{
		"github.com/netsecurelab/mtasts/internal/scanner/fixcodes", // consumer, not producer
		"github.com/netsecurelab/mtasts/cmd/fixcodes",
	} {
		m := loadFixture(t, "codes", importPath)
		if findings := Run(m, []*Analyzer{Codes()}); len(findings) != 0 {
			t.Errorf("%s: want no findings outside producer packages, got %v", importPath, findings)
		}
	}
}

// TestCtxPassSkipsCommandsAndExperiments pins the analyzer's scope
// rules: the same source is quiet outside internal/ and in the
// experiments harness.
func TestCtxPassScope(t *testing.T) {
	for _, importPath := range []string{
		"github.com/netsecurelab/mtasts/cmd/fixctx", // not internal/
	} {
		m := loadFixture(t, "ctxpass", importPath)
		if findings := Run(m, []*Analyzer{CtxPass()}); len(findings) != 0 {
			t.Errorf("%s: want no findings outside internal/, got %v", importPath, findings)
		}
	}
	m := loadFixture(t, "ctxpass", "github.com/netsecurelab/mtasts/internal/experiments/fixctx")
	for _, f := range Run(m, []*Analyzer{CtxPass()}) {
		if strings.Contains(f.Message, "context.Background") || strings.Contains(f.Message, "context.TODO") {
			t.Errorf("experiments package should mint root contexts freely, got %s", f)
		}
	}
}

func TestLockHoldGolden(t *testing.T) {
	lintFixture(t, "lockhold", "github.com/netsecurelab/mtasts/internal/fixlockhold", LockHold())
}

func TestUnlockPathGolden(t *testing.T) {
	lintFixture(t, "unlockpath", "github.com/netsecurelab/mtasts/internal/fixunlock", UnlockPath())
}

func TestGoroLeakGolden(t *testing.T) {
	lintFixture(t, "goroleak", "github.com/netsecurelab/mtasts/internal/fixgoroleak", GoroLeak())
}

func TestWGPairGolden(t *testing.T) {
	lintFixture(t, "wgpair", "github.com/netsecurelab/mtasts/internal/fixwgpair", WGPair())
}

// TestLockHoldScope pins the exemptions: commands are free to block
// under locks they own for process lifetime, and internal/store's
// mutex exists to serialize file I/O.
func TestLockHoldScope(t *testing.T) {
	for _, importPath := range []string{
		"github.com/netsecurelab/mtasts/cmd/fixlockhold",            // not internal/
		"github.com/netsecurelab/mtasts/internal/store/fixlockhold", // store serializes I/O by design
	} {
		m := loadFixture(t, "lockhold", importPath)
		if findings := Run(m, []*Analyzer{LockHold()}); len(findings) != 0 {
			t.Errorf("%s: want no findings in exempt package, got %v", importPath, findings)
		}
	}
}

// TestGoroLeakScope pins the exemptions: commands and the experiments
// harness own their process lifecycle.
func TestGoroLeakScope(t *testing.T) {
	for _, importPath := range []string{
		"github.com/netsecurelab/mtasts/cmd/fixgoroleak",
		"github.com/netsecurelab/mtasts/internal/experiments/fixgoroleak",
	} {
		m := loadFixture(t, "goroleak", importPath)
		if findings := Run(m, []*Analyzer{GoroLeak()}); len(findings) != 0 {
			t.Errorf("%s: want no findings in exempt package, got %v", importPath, findings)
		}
	}
}

func TestSleepLoopSkipsRetryPackage(t *testing.T) {
	m := loadFixture(t, "sleeploop", "github.com/netsecurelab/mtasts/internal/retry")
	if findings := Run(m, []*Analyzer{SleepLoop()}); len(findings) != 0 {
		t.Errorf("internal/retry implements the sanctioned wait; want no findings, got %v", findings)
	}
}
