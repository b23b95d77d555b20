// Command filterbench regenerates the paper's tables and figures. Each
// experiment (see DESIGN.md §4) is a subcommand; with no arguments the
// whole suite runs in order.
//
// Usage:
//
//	filterbench             # run every experiment
//	filterbench E6 E8       # run selected experiments
//	filterbench -list       # list experiment ids and titles
//	filterbench -json E15   # machine-readable reports (perf trajectory)
//	filterbench -json -chaos      # the fault-injection robustness run (E17) only
//	filterbench -e18-queries 200 E18   # the serving experiment on a shorter stream
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"filterjoin/internal/experiments"
)

func main() {
	list := flag.Bool("list", false, "list experiments and exit")
	asJSON := flag.Bool("json", false, "emit reports as a JSON array instead of text tables")
	chaos := flag.Bool("chaos", false, "run the fault-injection robustness experiment (E17) only")
	e18Queries := flag.Int("e18-queries", experiments.E18Queries, "total statements in E18's stream")
	e18Sessions := flag.Int("e18-sessions", experiments.E18Sessions, "concurrent sessions sharing E18's stream")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: filterbench [-list] [-json] [-chaos] [-e18-queries n] [-e18-sessions n] [experiment ids...]\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, e := range experiments.Registry {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	var toRun []experiments.Entry
	if *chaos {
		e, _ := experiments.ByID("E17")
		toRun = append(toRun, e)
	}
	if args := flag.Args(); len(args) > 0 {
		for _, id := range args {
			e, ok := experiments.ByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "filterbench: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			toRun = append(toRun, e)
		}
	} else if !*chaos {
		toRun = experiments.Registry
	}

	failed := 0
	var reports []*experiments.Report
	for _, e := range toRun {
		if e.ID == "E18" {
			e.Run = func() (*experiments.Report, error) { return experiments.E18Serving(*e18Sessions, *e18Queries) }
		}
		r, err := e.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "filterbench: %s failed: %v\n", e.ID, err)
			failed++
			continue
		}
		if *asJSON {
			reports = append(reports, r)
		} else {
			fmt.Println(r.String())
		}
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			fmt.Fprintf(os.Stderr, "filterbench: encoding reports: %v\n", err)
			failed++
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}
