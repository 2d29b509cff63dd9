package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/causal"
	"repro/internal/core"
	"repro/internal/fr"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/race"
	"repro/internal/trace"
	"repro/revoke"
)

// The observed workload runs the bytecode workload's programs on the
// threaded tier with every diagnostic rvmrun offers attached, and produces
// their reports: the observer's metrics, the virtual-time profiler's
// profiles, the flight recorder's dump, trace recording with the critical
// path, the race sanitizer, and the wait-for-graph deadlock observer.

// obsRun is what one observed run yields for its checks.
type obsRun struct {
	clock                      int64
	work, waste, sched         int64 // profiler totals
	dagClock, critPath         int64 // the DAG's final clock and the critical path's length
	dagErr                     error // the longest-path == clock invariant
	observerWaste, statsWasted int64
	races                      int
	firstRace                  string
}

func setupObserved(seed int64, ph phases, counter *eventCounter) (func(*tally), error) {
	progs, err := loadPrograms(seed, ph)
	if err != nil {
		return nil, err
	}
	return func(t *tally) {
		for _, p := range progs {
			var r *progRun
			var o obsRun
			t.op(p.name+" observed", func() (err error) {
				r, o, err = runObserved(p, t, counter)
				return err
			}, func() error {
				if err := checkObserved(o); err != nil {
					return err
				}
				return p.check(r.env)
			})
			if r == nil {
				continue
			}
			t.addStats(r.stats, r.cpu)
			t.addRevocationRun(r.highSpan, r.overallSpan, r.sections)
		}
	}, nil
}

// runObserved runs p with every diagnostic attached and produces the
// reports, timing each report into its phase.
func runObserved(p *program, t *tally, counter *eventCounter) (*progRun, obsRun, error) {
	var o obsRun
	observer := obs.NewObserver()
	profiler := prof.New()
	rec := &revoke.TraceRecorder{}
	sites := causal.NewSiteRecorder()
	profiler.SetSampler(sites.Add)
	detector := revoke.NewRaceDetector()
	detector.SetCertifiedRaceFree(p.facts.RaceFreeSlotNames())
	triggers, err := fr.ParseTriggers("") // rvmrun -fr's defaults
	if err != nil {
		return nil, o, err
	}
	var rt *revoke.Runtime
	var frBytes int
	recorder := fr.New(fr.Config{
		Triggers: triggers,
		Program:  p.name,
		VM:       "revocation",
		StatsJSON: func() []byte {
			b, _ := json.Marshal(rt.Stats()) // a dump without stats is still a dump
			return b
		},
		ProfileJSON: func() []byte {
			b, _ := json.Marshal(profiler.Snapshot().Digest(10))
			return b
		},
		OnDump: func(d *fr.Dump) {
			var buf bytes.Buffer
			if err := fr.WriteDump(&buf, d); err == nil {
				frBytes += buf.Len()
			}
		},
	})
	// The wait-for-graph observer reports each cycle; the revocation
	// runtime still breaks it.
	var cycles [][]core.DeadlockEdge
	r, err := newProgramRun(p, interp.TierThreaded, revoke.Config{
		Tracer:     counter.tracer(),
		Observer:   trace.Multi{observer, rec, recorder},
		Profiler:   profiler,
		Race:       detector,
		OnDeadlock: func(c []core.DeadlockEdge) { cycles = append(cycles, c) },
	})
	if err != nil {
		return nil, o, err
	}
	rt = r.rt
	if err := r.run(); err != nil {
		return nil, o, err
	}
	reports := detector.Finalize()
	if o.races = len(reports); o.races > 0 {
		o.firstRace = reports[0].String()
	}
	o.clock = r.clock
	o.work, o.waste, o.sched = profiler.Total(prof.Work), profiler.Total(prof.Waste), profiler.Total(prof.Sched)
	o.statsWasted = int64(r.stats.WastedTicks)

	var buf bytes.Buffer
	var events int
	steps := []struct {
		phase string
		f     func() error
	}{
		{"obs.report_s", func() error {
			observer.Metrics().Render(&buf)
			o.observerWaste = observer.Metrics().RollbackWasted().Sum()
			return nil
		}},
		{"prof.export_s", func() error {
			snap := profiler.Snapshot()
			for _, d := range prof.Dims() {
				if err := snap.WritePprof(&buf, d); err != nil {
					return err
				}
				if err := snap.WriteFolded(&buf, d); err != nil {
					return err
				}
			}
			return nil
		}},
		{"fr.dump_s", func() error {
			d, err := recorder.Snapshot(fr.ReasonExit)
			if err != nil {
				return err
			}
			var dump bytes.Buffer
			err = fr.WriteDump(&dump, d)
			frBytes += dump.Len()
			return err
		}},
		{"causal.build_s", func() error {
			ev := rec.Events()
			events = len(ev)
			g, err := causal.Build(ev, causal.Options{})
			if err != nil {
				return err
			}
			o.dagClock, o.dagErr = int64(g.FinalClock), g.CheckInvariant()
			a, err := g.CriticalPath()
			if err != nil {
				return err
			}
			sites.AttachSites(a)
			for _, pc := range a.Pieces {
				o.critPath += int64(pc.To - pc.From)
			}
			causal.RenderReport(&buf, g, a, 5)
			return nil
		}},
	}
	for _, s := range steps {
		if err := t.timed(s.phase, s.f); err != nil {
			return nil, o, fmt.Errorf("%s: %s: %w", p.name, strings.TrimSuffix(s.phase, "_s"), err)
		}
	}
	buf.WriteString(race.RenderReports(reports))
	fmt.Fprintf(&buf, "%d wait-for cycles\n", len(cycles))
	t.count["obs.spans"] += float64(len(observer.AllSpans()))
	t.count["fr.bytes"] += float64(frBytes)
	t.count["causal.points"] += float64(events)
	return r, o, nil
}

// checkObserved checks that the diagnostics reconcile with the VM and
// with each other: the profiler's work + waste + sched partitions the
// final clock, the critical path is exactly as long as the clock, the
// observer's rollback waste is core.Stats' WastedTicks, and the race
// sanitizer reports nothing on programs whose shared accesses are all
// guarded.
func checkObserved(o obsRun) error {
	switch {
	case o.work+o.waste+o.sched != o.clock:
		return fmt.Errorf("profiler work %d + waste %d + sched %d != clock %d", o.work, o.waste, o.sched, o.clock)
	case o.dagErr != nil:
		return fmt.Errorf("critical-path invariant: %v", o.dagErr)
	case o.dagClock != o.clock:
		return fmt.Errorf("DAG clock %d != runtime clock %d", o.dagClock, o.clock)
	case o.critPath != o.clock:
		return fmt.Errorf("critical path %d ticks, clock %d", o.critPath, o.clock)
	case o.observerWaste != o.statsWasted:
		return fmt.Errorf("observer rollback waste %d != Stats.WastedTicks %d", o.observerWaste, o.statsWasted)
	case o.races != 0:
		return fmt.Errorf("race sanitizer reported %d races on a fully guarded program, first %s", o.races, o.firstRace)
	}
	return nil
}
