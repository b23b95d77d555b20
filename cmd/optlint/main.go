// Command optlint runs the repo's static-analysis suite (internal/lint)
// over packages of this module.
//
//	go run ./cmd/optlint ./...
//
// Exit status is 0 when no analyzer finds a violation, 1 otherwise, and
// 2 on usage or load errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"filterjoin/internal/lint"
	"filterjoin/internal/lint/loader"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("optlint", flag.ContinueOnError)
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
	analyzers := lint.All()
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

	for _, d := range diags {
		pos := l.Fset.Position(d.Pos)
		file := pos.Filename
		if r, err := filepath.Rel(wd, pos.Filename); err == nil && !strings.HasPrefix(r, "..") {
			file = r
		}
		file = filepath.ToSlash(file)
		if *ghOut {
			fmt.Printf("::error file=%s,line=%d,col=%d,title=optlint/%s::%s\n",
				file, pos.Line, pos.Column, d.Analyzer, ghEscape(d.Message))
		} else {
			fmt.Printf("%s:%d:%d: %s (%s)\n", file, pos.Line, pos.Column, d.Message, d.Analyzer)
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// ghEscape encodes the characters the GitHub Actions annotation format
// reserves in message data.
func ghEscape(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}
