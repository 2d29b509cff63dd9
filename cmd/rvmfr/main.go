// Command rvmfr reads flight-recorder dumps (.rvmfr) written by
// `rvmrun -fr` and converts them for inspection:
//
//	rvmfr summary FILE...            identity, trigger context, section sizes
//	rvmfr events FILE                the event window, one line per event
//	rvmfr jsonl [-o OUT] FILE        lossless conversion to the rvm-trace
//	                                 JSONL schema (tracecheck-compatible; a
//	                                 wrapped ring is declared in the meta line)
//	rvmfr perfetto [-o OUT] FILE     replay the window through the observer
//	                                 and export a Perfetto/Chrome trace
//	rvmfr merge [-json] [-o OUT] FILE...
//	                                 fleet SLO merge: aggregate the latency
//	                                 distributions of many dumps, replayed
//	                                 exactly, into one p50/p99/p99.9 report
//	rvmfr critpath FILE              build the happens-before DAG from the
//	                                 window and print the critical-path
//	                                 attribution (best-effort on wrapped
//	                                 rings; exact with invariant check on
//	                                 complete streams)
//
// Exit status is 0 on success, 1 on any unreadable or invalid input, 2 on
// usage errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/causal"
	"repro/internal/fr"
	"repro/internal/obs"
	"repro/internal/trace"
)

func main() {
	os.Exit(run(os.Stdout, os.Stderr, os.Args[1:]))
}

func usage(errw io.Writer) int {
	fmt.Fprintln(errw, `usage: rvmfr COMMAND ...
  rvmfr summary FILE...                 dump identity and section overview
  rvmfr events FILE                     event window, one line per event
  rvmfr jsonl [-o OUT] FILE             convert to rvm-trace JSONL
  rvmfr perfetto [-o OUT] FILE          convert to a Perfetto trace
  rvmfr merge [-json] [-o OUT] FILE...  fleet SLO merge over dumps
  rvmfr critpath FILE                   critical-path attribution of the event window`)
	return 2
}

func run(out, errw io.Writer, args []string) int {
	if len(args) == 0 {
		return usage(errw)
	}
	cmd, rest := args[0], args[1:]
	var err error
	switch cmd {
	case "summary":
		if len(rest) == 0 {
			return usage(errw)
		}
		for _, path := range rest {
			if e := summary(out, path); e != nil {
				fmt.Fprintf(errw, "rvmfr: %s: %v\n", path, e)
				err = e
			}
		}
	case "events":
		if len(rest) != 1 {
			return usage(errw)
		}
		err = events(out, rest[0])
	case "critpath":
		if len(rest) != 1 {
			return usage(errw)
		}
		if err = critpath(out, rest[0]); err != nil {
			fmt.Fprintf(errw, "rvmfr: %s: %v\n", rest[0], err)
		}
	case "jsonl", "perfetto":
		fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
		fs.SetOutput(errw)
		outPath := fs.String("o", "", "output file (default stdout)")
		if fs.Parse(rest) != nil || fs.NArg() != 1 {
			return usage(errw)
		}
		err = withOutput(out, *outPath, func(w io.Writer) error {
			if cmd == "jsonl" {
				return convertJSONL(w, fs.Arg(0))
			}
			return convertPerfetto(w, fs.Arg(0))
		})
		if err != nil {
			fmt.Fprintf(errw, "rvmfr: %s: %v\n", fs.Arg(0), err)
		}
	case "merge":
		fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
		fs.SetOutput(errw)
		asJSON := fs.Bool("json", false, "emit the merged report as JSON")
		outPath := fs.String("o", "", "output file (default stdout)")
		if fs.Parse(rest) != nil || fs.NArg() == 0 {
			return usage(errw)
		}
		err = withOutput(out, *outPath, func(w io.Writer) error {
			rep, merr := fr.MergeFleet(fs.Args())
			if merr != nil {
				return merr
			}
			if *asJSON {
				return rep.WriteJSON(w)
			}
			rep.Render(w)
			return nil
		})
		if err != nil {
			fmt.Fprintf(errw, "rvmfr: merge: %v\n", err)
		}
	default:
		fmt.Fprintf(errw, "rvmfr: unknown command %q\n", cmd)
		return usage(errw)
	}
	if err != nil {
		return 1
	}
	return 0
}

// withOutput runs fn against stdout or a created file.
func withOutput(stdout io.Writer, path string, fn func(io.Writer) error) error {
	if path == "" {
		return fn(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readDump(path string) (*fr.Dump, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return fr.ReadDump(f)
}

// summary prints the dump's identity, trigger context and an overview of
// the captured window: time span, per-kind counts, attached sections.
func summary(out io.Writer, path string) error {
	d, err := readDump(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s: .rvmfr v%d\n", path, d.Version)
	fmt.Fprintf(out, "  reason:   %s (dump #%d at tick %d)\n", d.Meta.Reason, d.Meta.Seq, d.Meta.At)
	if d.Meta.Detail != "" {
		fmt.Fprintf(out, "  trigger:  %s\n", d.Meta.Detail)
	}
	if d.Meta.Program != "" {
		fmt.Fprintf(out, "  program:  %s\n", d.Meta.Program)
	}
	if d.Meta.VM != "" {
		fmt.Fprintf(out, "  vm:       %s\n", d.Meta.VM)
	}
	if len(d.Events) > 0 {
		first, last := d.Events[0].At, d.Events[len(d.Events)-1].At
		fmt.Fprintf(out, "  window:   %d events, ticks %d..%d\n", len(d.Events), first, last)
	} else {
		fmt.Fprintf(out, "  window:   empty\n")
	}
	if d.Truncated {
		fmt.Fprintf(out, "  wrapped:  yes (%d older events overwritten)\n", d.Lost)
	} else {
		fmt.Fprintf(out, "  wrapped:  no (complete stream)\n")
	}
	fmt.Fprintf(out, "  strings:  %d interned\n", len(d.Strings))

	counts := map[trace.Kind]int{}
	for _, e := range d.Events {
		counts[e.Kind]++
	}
	kinds := make([]trace.Kind, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool {
		if counts[kinds[i]] != counts[kinds[j]] {
			return counts[kinds[i]] > counts[kinds[j]]
		}
		return kinds[i] < kinds[j]
	})
	if len(kinds) > 0 {
		fmt.Fprintf(out, "  kinds:\n")
		for _, k := range kinds {
			fmt.Fprintf(out, "    %-20s %d\n", k, counts[k])
		}
	}
	section := func(name string, data []byte) {
		if data != nil {
			fmt.Fprintf(out, "  %-9s %d bytes\n", name+":", len(data))
		}
	}
	section("stats", d.StatsJSON)
	section("metrics", d.MetricsJSON)
	section("profile", d.ProfileJSON)
	return nil
}

// events prints the window as the runtime's one-line event rendering.
func events(out io.Writer, path string) error {
	d, err := readDump(path)
	if err != nil {
		return err
	}
	if d.Truncated {
		fmt.Fprintf(out, "# wrapped ring: %d older events overwritten\n", d.Lost)
	}
	for _, e := range d.Events {
		fmt.Fprintln(out, e)
	}
	return nil
}

func convertJSONL(w io.Writer, path string) error {
	d, err := readDump(path)
	if err != nil {
		return err
	}
	return d.WriteJSONL(w)
}

// critpath builds the happens-before DAG from the dump's event window —
// the same pure causal.Build path rvmrun -critpath runs on the live
// stream, so a post-mortem attributes identically to a live run. A
// wrapped ring loses its prefix: the build falls back to best-effort
// (synthetic thread starts, no invariant claim) and says so.
func critpath(w io.Writer, path string) error {
	d, err := readDump(path)
	if err != nil {
		return err
	}
	g, err := causal.Build(d.Events, causal.Options{AllowTruncated: d.Truncated})
	if err != nil {
		return err
	}
	if d.Truncated {
		fmt.Fprintf(w, "# wrapped ring: %d older events overwritten; attribution is best-effort\n", d.Lost)
	} else if err := g.CheckInvariant(); err != nil {
		return fmt.Errorf("critical-path invariant FAILED: %w", err)
	}
	a, err := g.CriticalPath()
	if err != nil {
		return err
	}
	causal.RenderReport(w, g, a, 5)
	return nil
}

func convertPerfetto(w io.Writer, path string) error {
	d, err := readDump(path)
	if err != nil {
		return err
	}
	o := obs.NewObserver()
	for _, e := range d.Events {
		o.Emit(e)
	}
	return obs.WritePerfetto(w, o)
}
