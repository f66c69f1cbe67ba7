package main

import (
	"encoding/json"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildLint compiles the cfslint binary once into a temp dir.
func buildLint(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "cfslint")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building cfslint: %v\n%s", err, out)
	}
	return bin
}

// plantedFragments is one want-fragment per planted bug class in
// testdata/badmod: the original pair (wall clock, map iteration) plus
// one per flow-aware analyzer added by the serving-invariant suite.
var plantedFragments = []string{
	"noclock: time.Now",
	"nomapiter: range over map",
	"snapconsist: second System.Current",
	"goleak: unbounded loop in a goroutine",
	"hotalloc: fmt.Sprintf on a hotpath",
}

// TestStandaloneFindsPlantedBugs runs the binary over the fixture
// module, which reintroduces every bug class the suite exists to
// catch — wall-clock reads, unsorted map-keyed emission, double
// snapshot loads, leaky goroutines and hotpath allocations.
func TestStandaloneFindsPlantedBugs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the cfslint binary")
	}
	bin := buildLint(t)
	cmd := exec.Command(bin, "./...")
	cmd.Dir = "testdata/badmod"
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("cfslint exited 0 over the planted-bug module:\n%s", out)
	}
	text := string(out)
	for _, wantFrag := range plantedFragments {
		if !strings.Contains(text, wantFrag) {
			t.Errorf("standalone output missing %q:\n%s", wantFrag, text)
		}
	}
}

// TestJSONReport pins the -json schema CI consumes: a JSON array of
// {file,line,col,analyzer,message,suppressed} objects on stdout, exit
// code still 1 while unsuppressed findings exist.
func TestJSONReport(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the cfslint binary")
	}
	bin := buildLint(t)
	cmd := exec.Command(bin, "-json", "./...")
	cmd.Dir = "testdata/badmod"
	out, err := cmd.Output()
	if err == nil {
		t.Fatalf("cfslint -json exited 0 over the planted-bug module:\n%s", out)
	}
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("cfslint -json: %v (want exit 1)\n%s", err, out)
	}
	var report []struct {
		File       string `json:"file"`
		Line       int    `json:"line"`
		Col        int    `json:"col"`
		Analyzer   string `json:"analyzer"`
		Message    string `json:"message"`
		Suppressed bool   `json:"suppressed"`
	}
	if err := json.Unmarshal(out, &report); err != nil {
		t.Fatalf("-json output is not a diagnostic array: %v\n%s", err, out)
	}
	if len(report) == 0 {
		t.Fatal("-json report is empty over the planted-bug module")
	}
	byAnalyzer := map[string]bool{}
	for i, d := range report {
		if d.File == "" || d.Line <= 0 || d.Col <= 0 || d.Analyzer == "" || d.Message == "" {
			t.Errorf("report[%d] has empty schema fields: %+v", i, d)
		}
		if d.Suppressed {
			t.Errorf("report[%d] claims suppression; badmod carries no directives: %+v", i, d)
		}
		byAnalyzer[d.Analyzer] = true
	}
	for _, a := range []string{"noclock", "nomapiter", "snapconsist", "goleak", "hotalloc"} {
		if !byAnalyzer[a] {
			t.Errorf("-json report has no %s finding; analyzers seen: %v", a, byAnalyzer)
		}
	}
}

// TestJSONReportCleanRepo asserts a clean tree still yields a valid
// report — an empty array, never null — with exit 0, and that the
// repo's own suppressed findings surface with suppressed=true so the
// report audits what the directives cover.
func TestJSONReportCleanRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the cfslint binary")
	}
	bin := buildLint(t)
	cmd := exec.Command(bin, "-json", "./...")
	cmd.Dir = "../.."
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("cfslint -json over its own repo: %v\n%s", err, out)
	}
	var report []struct {
		Analyzer   string `json:"analyzer"`
		Suppressed bool   `json:"suppressed"`
	}
	if err := json.Unmarshal(out, &report); err != nil {
		t.Fatalf("-json output is not a diagnostic array: %v\n%s", err, out)
	}
	if strings.TrimSpace(string(out)) == "null" {
		t.Fatal("-json emitted null instead of an array")
	}
	for i, d := range report {
		if !d.Suppressed {
			t.Errorf("report[%d] is unsuppressed (%s) yet the binary exited 0", i, d.Analyzer)
		}
	}
}

// TestStandaloneCleanOwnRepo is the self-test: the repository this
// linter ships in must lint clean, with every real finding fixed or
// carrying a justified annotation.
func TestStandaloneCleanOwnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the cfslint binary")
	}
	bin := buildLint(t)
	cmd := exec.Command(bin, "./...")
	cmd.Dir = "../.."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("cfslint found violations in its own repository:\n%s", out)
	}
}

// TestVettoolProtocol drives the binary through cmd/go's vet harness,
// exercising the -V=full/-flags handshakes and the unit-config path.
func TestVettoolProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the cfslint binary under go vet")
	}
	bin := buildLint(t)
	abs, err := filepath.Abs(bin)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "vet", "-vettool="+abs, "./...")
	cmd.Dir = "testdata/badmod"
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet -vettool exited 0 over the planted-bug module:\n%s", out)
	}
	text := string(out)
	for _, wantFrag := range plantedFragments {
		if !strings.Contains(text, wantFrag) {
			t.Errorf("vettool output missing %q:\n%s", wantFrag, text)
		}
	}
}

// TestVersionHandshake checks the -V=full line cmd/go fingerprints.
func TestVersionHandshake(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the cfslint binary")
	}
	bin := buildLint(t)
	out, err := exec.Command(bin, "-V=full").Output()
	if err != nil {
		t.Fatalf("-V=full: %v", err)
	}
	fields := strings.Fields(string(out))
	if len(fields) < 3 || fields[0] != "cfslint" || fields[1] != "version" {
		t.Errorf("-V=full output %q; want \"cfslint version ...\"", string(out))
	}
}
