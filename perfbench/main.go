// Command perfbench is the repository's benchmark. It runs one named
// workload against the revocation VM from a seed, checks the VM's outputs
// against computations made apart from the VM, and prints its metrics as a
// JSON object on the last line of standard output:
//
//	perfbench --workload figures --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// same workload runs under a CPU profile of this process and the metrics
// are the per-layer ones, also written with the profile under --out.
//
// Two more modes repeat and compare runs (see README.md):
//
//	perfbench stats --workload bank --runs 10 --seconds 20 --log a.jsonl
//	perfbench compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// processStart approximates the process's start: package initialization
// runs before main, after the Go runtime's own start-up.
var processStart = time.Now()

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "stats":
			os.Exit(statsMain(os.Args[2:]))
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 10, "measure whole rounds until this many seconds have passed")
	traced := fs.Int("trace", 0, "1: profile this process and print the per-layer metrics")
	out := fs.String("out", ".bench_out", "directory for the traced run's CPU profile and per-layer metrics file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || fs.NArg() != 0 || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {%s} --seed N --seconds S --trace 0|1\n",
			strings.Join(workloadNames(), "|"))
		return 2
	}
	fmt.Fprintf(os.Stderr, "perfbench: workload=%s seed=%d GOMAXPROCS=%d NumCPU=%d %s\n",
		*name, *seed, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	res, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// result is the benchmark's output contract: the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run performs one benchmark run: a cold set-up, then whole rounds of the
// workload's operations until d has passed.
func run(w workload, seed int64, d time.Duration, traced bool, outDir string) (result, error) {
	var counter *eventCounter
	if traced {
		// Counting events needs a tracer on every runtime; end-to-end
		// runs keep the default discarding one.
		counter = &eventCounter{}
	}
	ph := newPhases()
	round, err := w.setup(seed, ph, counter)
	if err != nil {
		return result{}, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	setup := time.Since(processStart)

	var prof *cpuProfile
	if traced {
		if prof, err = startCPUProfile(outDir, fmt.Sprintf("%s-seed%d", w.name, seed)); err != nil {
			return result{}, err
		}
	}
	var rounds []*tally
	start := time.Now()
	for len(rounds) == 0 || time.Since(start) < d {
		t := newTally()
		g0 := readGoCounters()
		round(t)
		t.goDelta = readGoCounters().sub(g0)
		rounds = append(rounds, t)
	}
	measured := time.Since(start)

	res := result{Correct: true, Metrics: map[string]metric{}}
	for i, t := range rounds {
		res.Attempted += t.attempted
		res.Failed += t.failed
		for _, p := range t.problems {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: round %d: %s\n", i, p)
		}
		if i > 0 && t.ticks() != rounds[0].ticks() {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: round %d tick metrics %v differ from round 0's %v\n", i, t.ticks(), rounds[0].ticks())
		}
	}
	if n := len(rounds[0].sections); n < 1000 {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: a round holds %d high-priority sections, want at least 1000\n", n)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d rounds in %.2fs, set-up %.3fs, %s; round walls:", len(rounds), measured.Seconds(), setup.Seconds(), peakRSS())
	for _, t := range rounds {
		fmt.Fprintf(os.Stderr, " %.3f", t.wall.Seconds())
	}
	fmt.Fprintln(os.Stderr)

	if !traced {
		for k, v := range endToEnd(rounds, setup) {
			res.Metrics[k] = v
		}
		return res, nil
	}
	folded, err := prof.stop()
	if err != nil {
		return result{}, err
	}
	res.Metrics = perLayer(rounds, ph, folded, counter)
	if err := writeLayerFile(prof.base+".layers.json", res.Metrics); err != nil {
		return result{}, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: traced %.2fs over %d rounds; profile %s.cpu.pprof\n", measured.Seconds(), len(rounds), prof.base)
	return res, nil
}

// endToEnd computes the metrics a user of the VM sees. Host times and
// allocation are medians over the rounds of one run; the tick metrics come
// from the first round (every round repeats them exactly, which run
// checks).
func endToEnd(rounds []*tally, setup time.Duration) map[string]metric {
	wall := make([]float64, len(rounds))
	alloc := make([]float64, len(rounds))
	for i, t := range rounds {
		wall[i] = t.wall.Seconds()
		alloc[i] = float64(t.allocBytes) / 1e6
	}
	tk := rounds[0].ticks()
	return map[string]metric{
		"wall_s":                 {median(wall), "s"},
		"setup_s":                {setup.Seconds(), "s"},
		"alloc_mb":               {median(alloc), "MB"},
		"high_span_ticks":        {float64(tk.highSpan), "ticks"},
		"overall_span_ticks":     {float64(tk.overallSpan), "ticks"},
		"high_section_p50_ticks": {float64(tk.p50), "ticks"},
		"high_section_p99_ticks": {float64(tk.p99), "ticks"},
	}
}

// peakRSS reports the process's peak resident set size, for the record.
func peakRSS() string {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return "peak RSS unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(l, "VmHWM:") {
			return "peak RSS " + strings.Join(strings.Fields(l)[1:], " ")
		}
	}
	return "peak RSS unknown"
}

// workload is one named set of seeded inputs.
type workload struct {
	name string
	// setup generates the inputs from seed and loads everything a round
	// runs, timing its phases into ph. A non-nil counter must be attached
	// as the tracer of every runtime the rounds build.
	setup func(seed int64, ph phases, counter *eventCounter) (func(*tally), error)
}

var workloads = map[string]workload{
	"figures":  {"figures", setupFigures},
	"bank":     {"bank", setupBank},
	"bytecode": {"bytecode", setupBytecode},
	"observed": {"observed", setupObserved},
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
