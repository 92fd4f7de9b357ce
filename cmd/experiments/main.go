// Command experiments regenerates the MACEDON paper's Figures 8 and 9 (NICE
// stretch and latency per site) on the simnet emulator. The other figures
// run elsewhere: Figure 7 is `macedon loc specs/*.mac`, and Figures 10–12
// are the sweeps under examples/figures, run by `macedon sweep`.
//
// Usage:
//
//	experiments -figure 8|9            # NICE stretch / latency per site
//	experiments -figure 8 -scale 0.2   # scaled down
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"macedon/internal/harness"
)

func main() {
	figure := flag.String("figure", "8", "figure to regenerate: 8 (stretch and latency) or 9 (latency)")
	seed := flag.Int64("seed", 2004, "experiment seed")
	scale := flag.Float64("scale", 1.0, "scale factor for durations and sizes")
	flag.Parse()

	if *figure != "8" && *figure != "9" {
		fmt.Fprintf(os.Stderr, "unknown figure %q: this command runs Figures 8 and 9; Figures 10-12 are `macedon sweep examples/figures/fig1N.json`\n", *figure)
		os.Exit(2)
	}
	res, err := harness.RunNICE(harness.NICEParams{
		Seed:    *seed,
		Settle:  time.Duration(float64(5*time.Minute) * *scale),
		Packets: int(50 * *scale),
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "figure %s: %v\n", *figure, err)
		os.Exit(1)
	}
	out := func(format string, args ...any) { fmt.Printf(format, args...) }
	if *figure == "8" {
		res.PrintFigure8(out)
		out("\n")
	}
	res.PrintFigure9(out)
}
