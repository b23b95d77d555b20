// Command filterbench regenerates the paper's tables and figures. Each
// experiment (see EXPERIMENTS.md) is a subcommand; with no arguments the
// whole suite runs in order.
//
// Usage:
//
//	filterbench             # run every experiment
//	filterbench E6 E17      # run selected experiments
//	filterbench -list       # list experiment ids and titles
//	filterbench -json E15   # the JSON pinned in internal/experiments/testdata/E15.json
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
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: filterbench [-list] [-json] [experiment ids...]\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, e := range experiments.Registry {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	toRun := experiments.Registry
	if args := flag.Args(); len(args) > 0 {
		toRun = nil
		for _, id := range args {
			e, ok := experiments.ByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "filterbench: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			toRun = append(toRun, e)
		}
	}

	failed := 0
	var reports []*experiments.Report
	for _, e := range toRun {
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
