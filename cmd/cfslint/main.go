// Command cfslint runs the repo's invariant suite (internal/analysis):
// deterministic map iteration, sanctioned clocks and RNG, single-source
// probe accounting, nil-safe observability, fenced facset algebra, and
// the flow-aware serving invariants (one snapshot load per request,
// goroutine termination edges, hotpath allocation budgets).
//
// It speaks two protocols:
//
//	cfslint [-json] [packages]  standalone: load via `go list -export`,
//	                            analyze, print findings, exit 1 on any
//	                            unsuppressed one. Defaults to ./... from
//	                            the module root. -json emits the full
//	                            report (suppressed findings included) as
//	                            [{file,line,col,analyzer,message,
//	                            suppressed}] for CI.
//
//	go vet -vettool=$(which cfslint) ./...
//	                            unit-checker mode: cmd/go invokes the
//	                            tool once per package with a JSON config
//	                            (recognised by the single *.cfg
//	                            argument), plus -V=full and -flags
//	                            handshakes. Findings print as
//	                            file:line:col: analyzer: message and the
//	                            tool exits 1, which go vet surfaces.
//
// Suppressions: //cfslint:ordered <reason> (map iteration is safe
// here), //cfslint:ignore <analyzer> <reason>, //cfslint:file-ignore
// <analyzer> <reason>. Reasons are mandatory; the directives analyzer
// flags bare or misspelled suppressions.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"facilitymap/internal/analysis"
	"facilitymap/internal/analysis/framework"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	// go vet handshakes, in the order cmd/go issues them.
	if len(args) == 1 && strings.HasPrefix(args[0], "-V") {
		return printVersion()
	}
	if len(args) == 1 && args[0] == "-flags" {
		fmt.Println("[]") // no tool-specific flags
		return 0
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		return runUnit(args[0])
	}
	jsonOut := false
	var patterns []string
	for _, a := range args {
		if a == "-json" || a == "--json" {
			jsonOut = true
			continue
		}
		patterns = append(patterns, a)
	}
	return runStandalone(patterns, jsonOut)
}

// printVersion implements -V=full: cmd/go fingerprints the tool binary
// to key the vet action cache, so the ID must change when the binary
// does — hash the executable, like unitchecker does.
func printVersion() int {
	name := "cfslint"
	sum := [sha256.Size]byte{}
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			h := sha256.New()
			_, _ = io.Copy(h, f)
			f.Close()
			copy(sum[:], h.Sum(nil))
		}
	}
	fmt.Printf("%s version devel buildID=%02x\n", name, sum)
	return 0
}

// jsonDiagnostic is the -json report schema CI consumes (validated
// with jq in the workflow): one object per finding, suppressed ones
// included so the report audits what the directives cover. The exit
// code still keys off unsuppressed findings only.
type jsonDiagnostic struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

// runStandalone loads packages through the go command and analyzes
// them all in one process.
func runStandalone(patterns []string, jsonOut bool) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := framework.Load(".", patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cfslint:", err)
		return 2
	}
	suite := analysis.Suite()
	exit := 0
	report := []jsonDiagnostic{} // encodes as [] when clean, never null
	for _, pkg := range pkgs {
		diags, err := framework.RunAnalyzersVerbose(pkg, suite)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cfslint:", err)
			return 2
		}
		for _, d := range diags {
			if jsonOut {
				report = append(report, jsonDiagnostic{
					File:       d.Pos.Filename,
					Line:       d.Pos.Line,
					Col:        d.Pos.Column,
					Analyzer:   d.Analyzer,
					Message:    d.Message,
					Suppressed: d.Suppressed,
				})
			} else if !d.Suppressed {
				fmt.Println(d)
			}
			if !d.Suppressed {
				exit = 1
			}
		}
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(os.Stderr, "cfslint:", err)
			return 2
		}
	}
	return exit
}

// unitConfig is the JSON cmd/go writes for each vet unit of work —
// the same schema golang.org/x/tools' unitchecker consumes.
type unitConfig struct {
	ID                        string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// runUnit analyzes one package per the vettool protocol.
func runUnit(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cfslint:", err)
		return 2
	}
	var cfg unitConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "cfslint: parsing %s: %v\n", cfgPath, err)
		return 2
	}

	// The suite exports no facts, but cmd/go expects the .vetx file of
	// every unit to exist before it schedules dependents.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "cfslint:", err)
			return 2
		}
	}
	if cfg.VetxOnly {
		return 0 // dependency unit: facts only, no diagnostics wanted
	}

	// Test variants reach us too ("pkg [pkg.test]", "pkg_test"); the
	// invariants guard shipped code, and checkFromSource drops _test.go
	// files, so a test-only unit simply has nothing to analyze.
	var goFiles []string
	for _, f := range cfg.GoFiles {
		if !strings.HasSuffix(f, "_test.go") {
			goFiles = append(goFiles, f)
		}
	}
	if len(goFiles) == 0 {
		return 0
	}
	pkg, err := framework.CheckWithExports(cfg.ImportPath, cfg.Dir, goFiles, cfg.PackageFile, cfg.ImportMap)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(os.Stderr, "cfslint:", err)
		return 2
	}
	diags, err := framework.RunAnalyzers(pkg, analysis.Suite())
	if err != nil {
		fmt.Fprintln(os.Stderr, "cfslint:", err)
		return 2
	}
	for _, d := range diags {
		// go vet prefixes tool stderr with the package; keep lines in
		// the file:line:col form editors and CI annotators parse.
		rel := d
		if r, err := filepath.Rel(cfg.Dir, d.Pos.Filename); err == nil && !strings.HasPrefix(r, "..") {
			rel.Pos.Filename = r
		}
		fmt.Fprintln(os.Stderr, rel)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
