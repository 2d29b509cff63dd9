// Fleet SLO merge: aggregate the latency distributions of many VM
// instances' flight-recorder dumps into one p50/p99/p99.9 service-level
// report. Each dump is one instance's view, and the SLO question ("what
// blocking time does the slowest permille see?") only exists over their
// union. The merge is exact: every dump's event window is replayed through
// a fresh observer, so every raw sample participates.
package fr

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/obs"
)

// Fleet series names, in render order.
var fleetSeries = []string{"blocking", "hold", "contention", "rollback_wasted"}

// SLOSeries is one merged distribution of the fleet report.
type SLOSeries struct {
	obs.HistSummary
	// Sources counts how many inputs contributed samples to this series.
	Sources int `json:"sources"`
}

// FleetReport is the merged SLO view over a set of instances.
type FleetReport struct {
	SchemaVersion int      `json:"v"`
	Inputs        []string `json:"inputs"`
	DumpCount     int      `json:"dump_count"`
	// Series maps series name (blocking, hold, contention, rollback_wasted)
	// to its fleet-wide distribution.
	Series map[string]SLOSeries `json:"series"`
}

// fleetAccum collects samples per series across inputs.
type fleetAccum struct {
	hists   map[string]*obs.Histogram
	sources map[string]int
}

// addSamples merges one input's raw samples into a series.
func (a *fleetAccum) addSamples(series string, samples []int64) {
	if len(samples) == 0 {
		return
	}
	h, ok := a.hists[series]
	if !ok {
		h = &obs.Histogram{}
		a.hists[series] = h
	}
	for _, v := range samples {
		h.Observe(v)
	}
	a.sources[series]++
}

// MergeFleet merges flight-recorder dumps (.rvmfr) into one fleet SLO
// report. Inputs are sniffed by content, not extension; anything that is
// not a dump is rejected with an error naming the file.
func MergeFleet(paths []string) (*FleetReport, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("fr: no fleet inputs")
	}
	acc := &fleetAccum{hists: make(map[string]*obs.Histogram), sources: make(map[string]int)}
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		d, err := ReadDump(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		mergeDump(acc, d)
	}
	rep := &FleetReport{
		SchemaVersion: obs.SchemaVersion,
		Inputs:        paths,
		DumpCount:     len(paths),
		Series:        make(map[string]SLOSeries, len(acc.hists)),
	}
	for name, h := range acc.hists {
		rep.Series[name] = SLOSeries{HistSummary: h.Summary(), Sources: acc.sources[name]}
	}
	return rep, nil
}

// mergeDump replays the dump's event window through a fresh observer and
// merges the resulting raw samples — exact, no digest reconstruction.
func mergeDump(acc *fleetAccum, d *Dump) {
	o := obs.NewObserver()
	for _, e := range d.Events {
		o.Emit(e)
	}
	m := o.Metrics()
	var blocking, hold, contention []int64
	for _, h := range m.BlockingPerThreadAll() {
		blocking = append(blocking, h.Samples()...)
	}
	for _, h := range m.HoldPerMonitorAll() {
		hold = append(hold, h.Samples()...)
	}
	for _, h := range m.ContentionPerMonitorAll() {
		contention = append(contention, h.Samples()...)
	}
	acc.addSamples("blocking", blocking)
	acc.addSamples("hold", hold)
	acc.addSamples("contention", contention)
	acc.addSamples("rollback_wasted", m.RollbackWasted().Samples())
}

// Render writes the report as an aligned text table.
func (r *FleetReport) Render(w io.Writer) {
	fmt.Fprintf(w, "fleet SLO report: %d dump(s)\n", r.DumpCount)
	names := make([]string, 0, len(r.Series))
	for name := range r.Series {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return seriesRank(names[i]) < seriesRank(names[j]) })
	fmt.Fprintf(w, "  %-18s %8s %12s %8s %8s %8s %8s\n",
		"series", "n", "sum", "p50", "p99", "p99.9", "max")
	for _, name := range names {
		s := r.Series[name]
		fmt.Fprintf(w, "  %-18s %8d %12d %8d %8d %8d %8d\n",
			name, s.Count, s.Sum, s.P50, s.P99, s.P999, s.Max)
	}
}

// WriteJSON writes the report as indented JSON.
func (r *FleetReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

func seriesRank(name string) int {
	for i, s := range fleetSeries {
		if s == name {
			return i
		}
	}
	return len(fleetSeries) + len(name)
}
