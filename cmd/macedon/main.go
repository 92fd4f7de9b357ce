// Command macedon is the MACEDON translator front end: it validates .mac
// protocol specifications, generates Go agents from them, reports the
// lines-of-code metric of the paper's Figure 7, and runs declarative
// evaluation scenarios on the emulator.
//
// Usage:
//
//	macedon check spec.mac...            validate specifications
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
	out := fs.String("o", "", "write DIR/<protocol>/<protocol>.go per spec and the registry DIR/<base of DIR>.go, DIR relative to the module root gen runs at (default: one spec to stdout)")
	_ = fs.Parse(args)
	paths := fs.Args()
	if len(paths) == 0 || *out == "" && len(paths) != 1 {
		fmt.Fprintln(os.Stderr, "macedon gen: one specification, or -o DIR and any number")
		return 2
	}
	specs := make([]*dsl.Spec, len(paths))
	for i, path := range paths {
		src, err := os.ReadFile(path)
		if err == nil {
			specs[i], err = dsl.Parse(string(src))
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
			return 1
		}
	}
	if *out != "" {
		// Generated code imports macedon/internal/core: gen runs at this
		// module's root, and DIR is a path under it.
		importDir := path.Join("macedon", filepath.ToSlash(*out))
		reg, err := codegen.Registry(specs, paths, importDir)
		if err == nil && !filepath.IsLocal(*out) {
			err = fmt.Errorf("-o %s is not a path under the module root", *out)
		}
		if err == nil {
			err = writeGo(filepath.Join(*out, path.Base(importDir)+".go"), reg)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "macedon gen: %v\n", err)
			return 1
		}
	}
	code := 0
	for i, spec := range specs {
		res, err := codegen.Generate(spec, spec.Name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", paths[i], err)
			return 1
		}
		// Per-spec summary: what was translated, without grepping the output.
		fmt.Fprintf(os.Stderr, "%s: protocol %s: %d transitions, %d statements translated\n",
			paths[i], spec.Name, res.Transitions, res.Translated)
		file := ""
		if *out != "" {
			file = filepath.Join(*out, spec.Name, spec.Name+".go")
		}
		if err := writeGo(file, res.Source); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", paths[i], err)
			code = 1
		}
	}
	return code
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
