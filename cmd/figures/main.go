// Command figures regenerates the evaluation figures of "Preemption-Based
// Avoidance of Priority Inversion for Java" (ICPP 2004): Figures 5 and 6
// (total elapsed time of high-priority threads at 100K / 500K inner
// iterations) and Figures 7 and 8 (overall elapsed time), each across the
// paper's three thread mixes and six write ratios, on both the modified
// (revocation) and unmodified VM.
//
// Usage:
//
//	figures [-figure N|all] [-scale small|medium|paper] [-csv dir] [-summary] [-v]
//	figures -cell HIGH+LOW@WRITES [-figure N] [-scale small|medium|paper]
//
// Examples:
//
//	figures -figure 5                  # one figure, quick
//	figures -figure all -scale medium  # the full evaluation
//	figures -figure all -csv out      # also write CSV files
//	figures -cell 2+8@40               # one cell on both VMs
//
// Wall-clock performance is measured by perfbench (perfbench/README.md),
// and the fleet SLO merge over flight-recorder dumps is `rvmfr merge`.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/bench"
)

func main() {
	var (
		figure  = flag.String("figure", "all", "figure number (5-8) or \"all\"")
		scale   = flag.String("scale", "small", "run scale: small, medium or paper")
		csvDir  = flag.String("csv", "", "directory to write per-figure CSV files into")
		summary = flag.Bool("summary", true, "print the headline-claims comparison (requires all figures)")
		verbose = flag.Bool("v", false, "print per-cell progress")
		cell    = flag.String("cell", "", "run one cell instead: \"HIGH+LOW@WRITES%\", e.g. \"2+8@40\" (uses -figure for the variant)")
	)
	flag.Parse()

	sc, err := bench.ParseScale(*scale)
	if err != nil {
		fatal(err)
	}

	if *cell != "" {
		runSingleCell(*cell, *figure, sc)
		return
	}

	var numbers []int
	if *figure == "all" {
		for n := range bench.Specs {
			numbers = append(numbers, n)
		}
		sort.Ints(numbers)
	} else {
		var n int
		if _, err := fmt.Sscanf(*figure, "%d", &n); err != nil {
			fatal(fmt.Errorf("bad -figure %q: %v", *figure, err))
		}
		numbers = []int{n}
	}

	var progress bench.Progress
	if *verbose {
		progress = func(mix bench.Mix, wp int, vm bench.VM, res bench.CellResult) {
			fmt.Fprintf(os.Stderr, "  cell %v writes=%d%% %-10v high=%d overall=%d rollbacks=%d\n",
				mix, wp, vm, res.HighSpan, res.OverallSpan, res.Stats.Rollbacks)
		}
	}

	var highFigs, overallFigs []bench.Figure
	for _, n := range numbers {
		start := time.Now()
		fig, err := bench.RunFigure(n, sc, progress)
		if err != nil {
			fatal(err)
		}
		fig.Render(os.Stdout)
		fmt.Fprintf(os.Stderr, "(figure %d took %v)\n", n, time.Since(start).Round(time.Millisecond))
		if fig.Metric == bench.HighPriorityTime {
			highFigs = append(highFigs, fig)
		} else {
			overallFigs = append(overallFigs, fig)
		}
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fatal(err)
			}
			path := filepath.Join(*csvDir, fmt.Sprintf("figure%d.csv", n))
			f, err := os.Create(path)
			if err != nil {
				fatal(err)
			}
			fig.RenderCSV(f)
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
	}

	if *summary && len(highFigs) == 2 && len(overallFigs) == 2 {
		bench.Summarize(highFigs, overallFigs).Render(os.Stdout)
	}
}

// runSingleCell runs one benchmark cell on both VMs — handy at paper scale
// where a full figure takes hours.
func runSingleCell(cell, figure string, sc bench.Scale) {
	var high, low, writes int
	if _, err := fmt.Sscanf(cell, "%d+%d@%d", &high, &low, &writes); err != nil {
		fatal(fmt.Errorf("bad -cell %q (want HIGH+LOW@WRITES, e.g. 2+8@40): %v", cell, err))
	}
	n := 5
	if figure != "all" {
		if _, err := fmt.Sscanf(figure, "%d", &n); err != nil {
			fatal(err)
		}
	}
	spec, ok := bench.Specs[n]
	if !ok {
		fatal(fmt.Errorf("no figure %d", n))
	}
	p := bench.CellParams(sc, spec.ShortHigh, bench.Mix{High: high, Low: low}, writes)
	for _, vm := range []bench.VM{bench.Unmodified, bench.Modified} {
		start := time.Now()
		res, err := bench.RunCell(vm, p)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-10v high-span=%-12d overall-span=%-12d rollbacks=%-6d re-exec=%-6d (%v)\n",
			vm, res.HighSpan, res.OverallSpan, res.Stats.Rollbacks, res.Stats.Reexecutions,
			time.Since(start).Round(time.Millisecond))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "figures:", err)
	os.Exit(1)
}
