// Command optlint runs the repo's static-analysis suite (internal/lint)
// over packages of this module.
//
//	go run ./cmd/optlint ./...
//
// Exit status is 0 when no analyzer finds a violation, 1 otherwise, and
// 2 on usage or load errors. Findings are suppressed per line with
// "//lint:ignore <analyzer> <reason>".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"filterjoin/internal/lint"
	"filterjoin/internal/lint/analysis"
	"filterjoin/internal/lint/loader"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("optlint", flag.ContinueOnError)
	list := fs.Bool("list", false, "list analyzers and exit")
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array on stdout")
	ghOut := fs.Bool("gh", false, "emit findings as GitHub Actions ::error annotations")
	timing := fs.Bool("time", false, "report load and analysis wall time to stderr")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: optlint [flags] packages...\n\n")
		fmt.Fprintf(fs.Output(), "Packages are Go package patterns of this module (e.g. ./...).\n\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	analyzers := selectAnalyzers(*only)
	if analyzers == nil {
		fmt.Fprintf(os.Stderr, "optlint: unknown analyzer in -only=%s\n", *only)
		return 2
	}
	if *jsonOut && *ghOut {
		fmt.Fprintln(os.Stderr, "optlint: -json and -gh are mutually exclusive")
		return 2
	}
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		fs.Usage()
		return 2
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "optlint: %v\n", err)
		return 2
	}
	l, err := loader.NewShared(wd)
	if err != nil {
		fmt.Fprintf(os.Stderr, "optlint: %v\n", err)
		return 2
	}
	loadStart := time.Now()
	pkgs, err := l.Load(patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "optlint: %v\n", err)
		return 2
	}
	loadDur := time.Since(loadStart)
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "optlint: warning: %s: %v\n", pkg.Path, terr)
		}
	}
	runStart := time.Now()
	diags, err := lint.Run(l.Fset, pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "optlint: %v\n", err)
		return 2
	}
	runDur := time.Since(runStart)
	if *timing {
		fmt.Fprintf(os.Stderr, "optlint: loaded %d packages in %v, ran %d analyzers in %v\n",
			len(pkgs), loadDur.Round(time.Millisecond), len(analyzers), runDur.Round(time.Millisecond))
	}

	findings := make([]finding, 0, len(diags))
	for _, d := range diags {
		pos := l.Fset.Position(d.Pos)
		rel := pos.Filename
		if r, err := filepath.Rel(wd, pos.Filename); err == nil && !strings.HasPrefix(r, "..") {
			rel = r
		}
		findings = append(findings, finding{
			File: filepath.ToSlash(rel), Line: pos.Line, Col: pos.Column,
			Message: d.Message, Analyzer: d.Analyzer,
		})
	}
	switch {
	case *jsonOut:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(os.Stderr, "optlint: %v\n", err)
			return 2
		}
	case *ghOut:
		for _, f := range findings {
			fmt.Printf("::error file=%s,line=%d,col=%d,title=optlint/%s::%s\n",
				f.File, f.Line, f.Col, f.Analyzer, ghEscape(f.Message))
		}
	default:
		for _, f := range findings {
			fmt.Printf("%s:%d:%d: %s (%s)\n", f.File, f.Line, f.Col, f.Message, f.Analyzer)
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// finding is one diagnostic in machine-readable form (-json).
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
	Analyzer string `json:"analyzer"`
}

// ghEscape encodes the characters the GitHub Actions annotation format
// reserves in message data.
func ghEscape(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

func selectAnalyzers(only string) []*analysis.Analyzer {
	all := lint.All()
	if only == "" {
		return all
	}
	byName := map[string]*analysis.Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(only, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil
		}
		out = append(out, a)
	}
	return out
}
