// Command macedon is the MACEDON translator front end: it validates .mac
// protocol specifications, generates Go agents from them, reports the
// lines-of-code metric of the paper's Figure 7, and runs declarative
// evaluation scenarios on the emulator.
//
// Usage:
//
//	macedon check spec.mac...            check specifications as a set: parse, translate and layer, writing nothing
//	macedon gen [-o DIR] spec.mac...     generate Go agents: one to stdout, or DIR/<protocol>/ and the registry
//	macedon loc spec.mac...              count specification lines (Figure 7)
//	macedon scenario [-trace] [-shards N] file.json  run a churn/failure/workload scenario
//	macedon sweep [-shards N] [-json] sweep.json     run a shared-prefix parameter sweep
//	macedon deploy [-nodes N] [-vs-sim] file.json    run a scenario as a live multi-process deployment
//	macedon fuzz [-seed N] [-runs N]         random scenarios under invariant checks, with shrinking
//	macedon report [-bench] file             render a report's time series (or a bench history) as sparkline tables
//	macedon agent -controller H:P -node I    one live overlay node (launched by deploy)
package main

import (
	"cmp"
	"flag"
	"fmt"
	"go/format"
	"os"
	"path"
	"path/filepath"
	"slices"

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
	// A spec is checked by translating it, so check accepts exactly what gen
	// translates, and with the others it is given as a set, as gen -o
	// registers them: a layered spec is checked together with its base.
	specs, results := translate(args, true)
	code := 0
	for i, spec := range specs {
		if results[i] == nil {
			code = 1
			continue
		}
		layered := ""
		if spec.Uses != "" {
			layered = fmt.Sprintf(" uses %s", spec.Uses)
		}
		fmt.Printf("%s: protocol %s%s ok (%d states, %d messages, %d transitions)\n",
			args[i], spec.Name, layered, len(spec.States), len(spec.Messages), len(spec.Transitions))
	}
	return code
}

func runGen(args []string) int {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	out := fs.String("o", "", "write DIR/<protocol>/<protocol>.go per spec and the registry DIR/<base of DIR>.go, DIR relative to the module root gen runs at (default: one spec to stdout)")
	_ = fs.Parse(args)
	paths := fs.Args()
	if len(paths) == 0 || *out == "" && len(paths) != 1 {
		fmt.Fprintln(os.Stderr, "macedon gen: one specification, or -o DIR and any number")
		return 2
	}
	// Every spec translates before anything is written, so a failing one
	// leaves DIR as it was.
	specs, results := translate(paths, *out != "")
	if slices.Contains(results, nil) {
		return 1
	}
	if *out != "" {
		if !filepath.IsLocal(*out) {
			fmt.Fprintf(os.Stderr, "macedon gen: -o %s is not a path under the module root\n", *out)
			return 1
		}
		// Generated code imports macedon/internal/core: gen runs at this
		// module's root, and DIR is a path under it.
		importDir := path.Join("macedon", filepath.ToSlash(*out))
		if err := writeGo(filepath.Join(*out, path.Base(importDir)+".go"), codegen.Registry(specs, importDir)); err != nil {
			fmt.Fprintf(os.Stderr, "macedon gen: %v\n", err)
			return 1
		}
	}
	code := 0
	for i, res := range results {
		fmt.Fprintf(os.Stderr, "%s: protocol %s: %d transitions\n", paths[i], specs[i].Name, res.Transitions)
		file := ""
		if *out != "" {
			file = filepath.Join(*out, specs[i].Name, specs[i].Name+".go")
		}
		if err := writeGo(file, res.Source); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", paths[i], err)
			code = 1
		}
	}
	return code
}

// translate reads, parses and translates the spec at each path and, asSet,
// checks them as the set gen -o registers (codegen.CheckLayering). It
// reports each spec's first error on standard error; a spec that failed has
// a nil result.
func translate(paths []string, asSet bool) ([]*dsl.Spec, []*codegen.Result) {
	specs := make([]*dsl.Spec, len(paths))
	results := make([]*codegen.Result, len(paths))
	errs := make([]error, len(paths))
	for i, path := range paths {
		src, err := os.ReadFile(path)
		if err == nil {
			specs[i], err = dsl.Parse(string(src))
		}
		if err == nil {
			results[i], err = codegen.Generate(specs[i], specs[i].Name)
		}
		errs[i] = err
	}
	if asSet {
		for i, err := range codegen.CheckLayering(specs) {
			if err != nil && errs[i] == nil {
				errs[i] = err
			}
		}
	}
	for i, err := range errs {
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", paths[i], err)
			results[i] = nil
		}
	}
	return specs, results
}

// writeGo formats src and writes it to file, making its directory, or to
// stdout when file is "". Source that does not format is written as it is,
// so the bug is debuggable, and reported: it is not Go.
func writeGo(file, src string) error {
	formatted, errFmt := format.Source([]byte(src))
	if errFmt != nil {
		formatted, errFmt = []byte(src), fmt.Errorf("generated source does not parse: %w", errFmt)
	}
	var err error
	if file == "" {
		_, err = os.Stdout.Write(formatted)
	} else if err = os.MkdirAll(filepath.Dir(file), 0o755); err == nil {
		err = os.WriteFile(file, formatted, 0o644)
	}
	return cmp.Or(err, errFmt)
}

func runLoc(args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "macedon loc: no specifications given")
		return 2
	}
	slices.Sort(args)
	fmt.Printf("Figure 7 — lines of code used in algorithm specifications\n")
	fmt.Printf("%-24s %s\n", "specification", "LOC")
	total := 0
	for _, path := range args {
		src, err := os.ReadFile(path)
		n := 0
		if err == nil {
			n, err = dsl.CountLines(string(src))
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
			return 1
		}
		total += n
		fmt.Printf("%-24s %d\n", filepath.Base(path), n)
	}
	fmt.Printf("%-24s %d\n", "total", total)
	return 0
}
