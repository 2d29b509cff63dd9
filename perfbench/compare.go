package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// The stats mode runs a workload several times, each run a fresh process
// with its own seed, logs every result line, and prints each metric's
// median and quartiles. The compare mode reads two such logs and tests,
// metric by metric, whether the second set differs from the first with a
// Mann-Whitney U test.

// logEntry is one line of a stats log: a run's seed and its result.
type logEntry struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	result
}

func statsMain(args []string) int {
	fs := flag.NewFlagSet("perfbench stats", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	runs := fs.Int("runs", 10, "number of runs, each a fresh process")
	seed0 := fs.Int64("seed0", 1, "seed of the first run; run i uses seed0+i")
	seconds := fs.Float64("seconds", 10, "measuring time of each run")
	traced := fs.Int("trace", 0, "1: per-layer metrics")
	logPath := fs.String("log", "", "append each run's result to this JSON-lines file (default .bench_out/stats-WORKLOAD-TIME.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*name]; !ok || *runs < 1 {
		fmt.Fprintln(os.Stderr, "usage: perfbench stats --workload W --runs N [--seed0 K] [--seconds S] [--trace 0|1] [--log FILE]")
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if *logPath == "" {
		*logPath = filepath.Join(".bench_out", fmt.Sprintf("stats-%s-%d.jsonl", *name, time.Now().Unix()))
	}
	if err := os.MkdirAll(filepath.Dir(*logPath), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	logF, err := os.OpenFile(*logPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer logF.Close()
	fmt.Fprintln(os.Stderr, "perfbench: logging runs to", *logPath)
	var entries []logEntry
	for i := 0; i < *runs; i++ {
		seed := *seed0 + int64(i)
		cmd := exec.Command(self, "--workload", *name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(*seconds, 'g', -1, 64), "--trace", strconv.Itoa(*traced))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: run with seed %d: %v\n", seed, err)
			return 1
		}
		e := logEntry{Workload: *name, Seed: seed}
		if err := json.Unmarshal(lastLine(out), &e.result); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: run with seed %d: result: %v\n", seed, err)
			return 1
		}
		line, err := json.Marshal(e)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		if _, err := fmt.Fprintf(logF, "%s\n", line); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		entries = append(entries, e)
	}
	printSummary(os.Stdout, entries)
	return 0
}

func lastLine(out []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	return lines[len(lines)-1]
}

// printSummary prints, per metric, the median, quartiles and their
// spread as a share of the median, then the failed share of operations.
func printSummary(w io.Writer, entries []logEntry) {
	series := metricSeries(entries)
	fmt.Fprintf(w, "%-26s %6s %14s %14s %14s %8s\n", "metric", "unit", "q1", "median", "q3", "iqr/med")
	for _, k := range sortedKeys(series) {
		xs := series[k].values
		q1, q3 := quartiles(xs)
		fmt.Fprintf(w, "%-26s %6s %14.6g %14.6g %14.6g %8.4f\n", k, series[k].unit, q1, median(xs), q3, spread(xs))
	}
	attempted, failed, correct := 0, 0, true
	for _, e := range entries {
		attempted += e.Attempted
		failed += e.Failed
		correct = correct && e.Correct
	}
	fmt.Fprintf(w, "runs=%d correct=%v attempted=%d failed=%d\n", len(entries), correct, attempted, failed)
}

type series struct {
	unit   string
	values []float64
}

func metricSeries(entries []logEntry) map[string]*series {
	out := map[string]*series{}
	for _, e := range entries {
		for k, m := range e.Metrics {
			s := out[k]
			if s == nil {
				s = &series{unit: m.Unit}
				out[k] = s
			}
			s.values = append(s.values, m.Value)
		}
	}
	return out
}

func sortedKeys(m map[string]*series) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare BASE.jsonl NEW.jsonl")
		return 2
	}
	var sets [2][]logEntry
	for i, path := range args {
		var err error
		if sets[i], err = readLog(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	base, next := metricSeries(sets[0]), metricSeries(sets[1])
	fmt.Printf("%-26s %14s %14s %9s %8s %8s\n", "metric", "base median", "new median", "change", "U", "p")
	for _, k := range sortedKeys(base) {
		n, ok := next[k]
		if !ok {
			continue
		}
		b := base[k]
		mb, mn := median(b.values), median(n.values)
		u, p := mannWhitney(b.values, n.values)
		fmt.Printf("%-26s %14.6g %14.6g %+8.2f%% %8.1f %8.4f\n", k, mb, mn, 100*(mn-mb)/mb, u, p)
	}
	return 0
}

func readLog(path string) ([]logEntry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []logEntry
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var e logEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, e)
	}
	return out, sc.Err()
}
