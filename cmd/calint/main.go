// Command calint runs the repository's protocol-invariant analyzer suite
// (package internal/lint) over module packages and fails on any finding.
//
//	calint [-json] [-checks detrand,maporder,...] [packages]
//	calint -explain <check>
//
// Packages default to ./... rooted at the enclosing module. Exit status:
// 0 clean, 1 findings, 2 usage or load failure. Findings are suppressed
// in source with `//calint:ignore <check> <reason>` on the offending
// line or the line above; see internal/lint for the analyzer catalog.
// -explain prints one check's contract — the same text DESIGN.md §2.7
// embeds — with an example finding.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"convexagreement/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array")
	checks := flag.String("checks", "", "comma-separated subset of checks to run (default: all)")
	list := flag.Bool("list", false, "list available checks and exit")
	explain := flag.String("explain", "", "print one check's contract and example finding, then exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: calint [-json] [-checks c1,c2] [packages]\n       calint -explain <check>\n\nchecks:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(os.Stderr, "  %-15s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-15s %s\n", a.Name, a.Doc)
		}
		return
	}

	if *explain != "" {
		a := lint.AnalyzerByName(*explain)
		if a == nil {
			fmt.Fprintf(os.Stderr, "calint: unknown check %q (see calint -list)\n", *explain)
			os.Exit(2)
		}
		fmt.Printf("%s — %s\n", a.Name, a.Doc)
		if a.Contract != "" {
			fmt.Printf("\n%s\n", a.Contract)
		}
		if a.Example != "" {
			fmt.Printf("\nexample finding:\n  %s\n", a.Example)
		}
		return
	}

	var analyzers []*lint.Analyzer
	if *checks != "" {
		for _, name := range strings.Split(*checks, ",") {
			a := lint.AnalyzerByName(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(os.Stderr, "calint: unknown check %q\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "calint:", err)
		os.Exit(2)
	}
	root, err := lint.FindModuleRoot(cwd)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	findings, err := lint.Run(root, flag.Args(), analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []lint.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, "calint:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "calint: %d finding(s)\n", len(findings))
		}
		os.Exit(1)
	}
}
