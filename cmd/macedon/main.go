// Command macedon is the MACEDON translator front end: it validates .mac
// protocol specifications, generates Go agents from them, reports the
// lines-of-code metric of the paper's Figure 7, and runs declarative
// evaluation scenarios on the emulator.
//
// Usage:
//
//	macedon check spec.mac...            validate specifications
//	macedon gen -pkg name spec.mac       generate a Go agent to stdout
//	macedon loc spec.mac...              count specification lines (Figure 7)
//	macedon scenario [-trace] [-shards N] file.json  run a churn/failure/workload scenario
//	macedon sweep [-shards N] [-json] sweep.json     run a shared-prefix parameter sweep
//	macedon deploy [-nodes N] [-vs-sim] file.json    run a scenario as a live multi-process deployment
//	macedon fuzz [-seed N] [-runs N]         random scenarios under invariant checks, with shrinking
//	macedon report [-bench] file             render a report's time series (or a bench history) as sparkline tables
//	macedon agent -controller H:P -node I    one live overlay node (launched by deploy)
package main

import (
	"flag"
	"fmt"
	"go/format"
	"os"
	"path/filepath"
	"sort"

	"macedon/internal/codegen"
	"macedon/internal/dsl"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "check":
		os.Exit(runCheck(os.Args[2:]))
	case "gen":
		os.Exit(runGen(os.Args[2:]))
	case "loc":
		os.Exit(runLoc(os.Args[2:]))
	case "scenario":
		os.Exit(runScenario(os.Args[2:]))
	case "sweep":
		os.Exit(runSweep(os.Args[2:]))
	case "deploy":
		os.Exit(runDeploy(os.Args[2:]))
	case "fuzz":
		os.Exit(runFuzz(os.Args[2:]))
	case "report":
		os.Exit(runReport(os.Args[2:]))
	case "agent":
		os.Exit(runAgent(os.Args[2:]))
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: macedon check|gen|loc|scenario|sweep|deploy|fuzz|report|agent [args]")
}

func runCheck(args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "macedon check: no specifications given")
		return 2
	}
	bad := 0
	for _, path := range args {
		src, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
			bad++
			continue
		}
		spec, err := dsl.Parse(string(src))
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
			bad++
			continue
		}
		layered := ""
		if spec.Uses != "" {
			layered = fmt.Sprintf(" uses %s", spec.Uses)
		}
		fmt.Printf("%s: protocol %s%s ok (%d states, %d messages, %d transitions)\n",
			path, spec.Name, layered, len(spec.States), len(spec.Messages), len(spec.Transitions))
	}
	if bad > 0 {
		return 1
	}
	return 0
}

func runGen(args []string) int {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	pkg := fs.String("pkg", "", "generated package name (default gen<protocol>)")
	out := fs.String("o", "", "output file (default stdout)")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "macedon gen: exactly one specification required")
		return 2
	}
	path := fs.Arg(0)
	src, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
		return 1
	}
	spec, err := dsl.Parse(string(src))
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
		return 1
	}
	name := *pkg
	if name == "" {
		name = "gen" + spec.Name
	}
	res, err := codegen.Generate(spec, name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
		return 1
	}
	code := 0
	formatted, err := format.Source([]byte(res.Source))
	if err != nil {
		// Emit the unformatted source so the bug is debuggable, but fail: it
		// is not Go.
		fmt.Fprintf(os.Stderr, "%s: generated source does not parse: %v\n", path, err)
		formatted, code = []byte(res.Source), 1
	}
	// Per-spec summary: what was translated, without grepping the output.
	fmt.Fprintf(os.Stderr, "%s: protocol %s: %d transitions, %d statements translated\n",
		path, spec.Name, res.Transitions, res.Translated)
	if *out == "" {
		fmt.Print(string(formatted))
		return code
	}
	if err := os.WriteFile(*out, formatted, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", *out, err)
		return 1
	}
	return code
}

func runLoc(args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "macedon loc: no specifications given")
		return 2
	}
	sort.Strings(args)
	fmt.Printf("Figure 7 — lines of code used in algorithm specifications\n")
	fmt.Printf("%-24s %s\n", "specification", "LOC")
	total := 0
	for _, path := range args {
		src, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
			return 1
		}
		n := dsl.CountLines(string(src))
		total += n
		fmt.Printf("%-24s %d\n", filepath.Base(path), n)
	}
	fmt.Printf("%-24s %d\n", "total", total)
	return 0
}
