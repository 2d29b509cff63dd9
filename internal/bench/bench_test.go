package bench

import (
	"strings"
	"testing"

	"repro/internal/causal"
	"repro/internal/fr"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/simtime"
	"repro/internal/trace"
)

func smallParams() Params {
	p := ScaleSmall.base(true)
	p.HighThreads = 2
	p.LowThreads = 3
	p.Sections = 4
	p.WritePct = 40
	return p
}

func TestRunCellDeterministic(t *testing.T) {
	p := smallParams()
	a, err := RunCell(Modified, p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCell(Modified, p)
	if err != nil {
		t.Fatal(err)
	}
	if a.HighSpan != b.HighSpan || a.OverallSpan != b.OverallSpan || a.Stats != b.Stats {
		t.Fatalf("cells differ:\n%+v\n%+v", a, b)
	}
}

// TestRunCellSinksNonPerturbing runs one contended cell bare and with each
// instrumentation consumer attached through runCell. Every consumer is a
// pure read — spans and Stats equal RunCell's — and what it recorded
// reconciles with the runtime's own counters.
func TestRunCellSinksNonPerturbing(t *testing.T) {
	p := CellParams(ScaleSmall, true, Mix{2, 2}, 60)
	plain, err := RunCell(Modified, p)
	if err != nil {
		t.Fatal(err)
	}
	wasted := int64(plain.Stats.WastedTicks)
	if wasted == 0 {
		t.Fatal("the cell rolled back nothing, so the waste reconciliations prove nothing")
	}
	o := obs.NewObserver()
	pr := prof.New()
	rec := &trace.Recorder{}
	ring := fr.New(fr.Config{Triggers: fr.DefaultTriggers()})
	cases := []struct {
		name  string
		sink  trace.Sink
		pr    *prof.Profiler
		check func(t *testing.T)
	}{
		{"observer", o, nil, func(t *testing.T) {
			if got := o.Metrics().RollbackWasted().Sum(); got != wasted {
				t.Errorf("wasted reconciliation: histogram %d, stats %d", got, wasted)
			}
			if o.Dropped() != 0 {
				t.Errorf("dropped = %d events", o.Dropped())
			}
		}},
		{"profiler", nil, pr, func(t *testing.T) {
			if got := pr.Total(prof.Waste); got != wasted {
				t.Errorf("waste reconciliation: profile %d, stats %d", got, wasted)
			}
			if pr.Total(prof.Work) == 0 {
				t.Error("no work ticks attributed")
			}
			if pr.Total(prof.Block) == 0 {
				t.Error("a contended cell blocked no ticks")
			}
			// Per-thread attribution: every bench thread appears as a root.
			roots := map[string]bool{}
			for _, smp := range pr.Snapshot().Dims[prof.Work] {
				roots[smp.Stack[len(smp.Stack)-1].Func] = true
			}
			for _, want := range []string{"high0", "high1", "low0", "low1"} {
				if !roots[want] {
					t.Errorf("no work attributed to thread %s (roots %v)", want, roots)
				}
			}
		}},
		{"trace_recorder", rec, nil, func(t *testing.T) {
			events := rec.Events()
			if len(events) == 0 {
				t.Fatal("no events recorded")
			}
			g, err := causal.Build(events, causal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := g.CheckInvariant(); err != nil {
				t.Fatalf("critical-path invariant: %v", err)
			}
			a, err := g.CriticalPath()
			if err != nil {
				t.Fatal(err)
			}
			var sum simtime.Ticks
			for _, ticks := range a.ClassTotals {
				sum += ticks
			}
			if sum != g.FinalClock {
				t.Errorf("class totals %d do not tile the makespan %d", sum, g.FinalClock)
			}
		}},
		{"flight_recorder", ring, nil, func(t *testing.T) {
			if ring.Len() == 0 {
				t.Fatal("recorder captured no events")
			}
			events, err := ring.Events()
			if err != nil {
				t.Fatalf("ring decode: %v", err)
			}
			if len(events) != ring.Len() {
				t.Errorf("decoded %d events, ring reports %d", len(events), ring.Len())
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := runCell(Modified, p, tc.sink, tc.pr)
			if err != nil {
				t.Fatal(err)
			}
			if res.HighSpan != plain.HighSpan || res.OverallSpan != plain.OverallSpan || res.Stats != plain.Stats {
				t.Fatalf("consumer perturbed the cell:\nplain    %+v\nattached %+v", plain, res)
			}
			tc.check(t)
		})
	}
}

func TestRunCellSpans(t *testing.T) {
	res, err := RunCell(Unmodified, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.HighSpan <= 0 || res.OverallSpan <= 0 {
		t.Fatalf("spans not positive: %+v", res)
	}
	if res.OverallSpan < res.HighSpan {
		t.Fatalf("overall span %d < high span %d", res.OverallSpan, res.HighSpan)
	}
}

func TestUnmodifiedCellNeverLogs(t *testing.T) {
	res, err := RunCell(Unmodified, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.EntriesLogged != 0 || res.Stats.Rollbacks != 0 {
		t.Fatalf("unmodified VM logged/rolled back: %+v", res.Stats)
	}
}

func TestModifiedCellLogsWrites(t *testing.T) {
	p := smallParams()
	p.WritePct = 100
	res, err := RunCell(Modified, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.EntriesLogged == 0 {
		t.Fatal("no stores logged at 100% writes")
	}
	p.WritePct = 0
	res0, err := RunCell(Modified, p)
	if err != nil {
		t.Fatal(err)
	}
	if res0.Stats.EntriesLogged != 0 {
		t.Fatalf("stores logged at 0%% writes: %d", res0.Stats.EntriesLogged)
	}
}

// TestInnerLoopWriteRatio checks runInnerLoop produces exactly the
// requested write percentage, evenly interleaved.
func TestInnerLoopWriteRatio(t *testing.T) {
	for _, wp := range WriteRatios {
		p := smallParams()
		p.HighThreads = 1
		p.LowThreads = 0
		p.Sections = 1
		p.HighIters = 1000
		p.WritePct = wp
		res, err := RunCell(Modified, p)
		if err != nil {
			t.Fatal(err)
		}
		// Every in-section write reaches the logging barrier; repeated
		// stores to the same buffer slot are deduped (first-write-wins),
		// so logged + deduped is the true write count.
		want := int64(1000 * wp / 100)
		if got := res.Stats.EntriesLogged + res.Stats.StoresDeduped; got != want {
			t.Errorf("wp=%d: logged+deduped %d writes, want %d", wp, got, want)
		}
		// The log itself holds at most one entry per buffer slot.
		if max := int64(p.BufferLen); res.Stats.EntriesLogged > max {
			t.Errorf("wp=%d: logged %d entries, dedup bound is %d", wp, res.Stats.EntriesLogged, max)
		}
		if wp == 100 && res.Stats.EntriesLogged != int64(p.BufferLen) {
			t.Errorf("wp=100: logged %d entries, want %d (every slot once)", res.Stats.EntriesLogged, p.BufferLen)
		}
	}
}

func TestScaleParsing(t *testing.T) {
	for s, want := range map[string]Scale{"small": ScaleSmall, "medium": ScaleMedium, "paper": ScalePaper} {
		got, err := ParseScale(s)
		if err != nil || got != want {
			t.Errorf("ParseScale(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Errorf("Scale.String = %q", got.String())
		}
	}
	if _, err := ParseScale("bogus"); err == nil {
		t.Error("bogus scale accepted")
	}
}

func TestScaleGeometryInvariant(t *testing.T) {
	// Every scale preserves section:quantum = 3:2 and the 1:5 short-high
	// ratio (the paper's 100K vs 500K).
	for _, s := range []Scale{ScaleSmall, ScaleMedium, ScalePaper} {
		long := s.base(false)
		short := s.base(true)
		section := simtime.Ticks(long.LowIters) * long.CostRead
		if diff := section*2 - long.Quantum*3; diff < -3 || diff > 3 {
			t.Errorf("%v: section %d, quantum %d: ratio not 3:2", s, section, long.Quantum)
		}
		if short.HighIters*5 != long.HighIters {
			t.Errorf("%v: short/long high iters %d/%d not 1:5", s, short.HighIters, long.HighIters)
		}
		if long.LowIters != short.LowIters {
			t.Errorf("%v: low iters differ between variants", s)
		}
	}
}

func TestSpecsCoverAllFigures(t *testing.T) {
	for _, n := range []int{5, 6, 7, 8} {
		spec, ok := Specs[n]
		if !ok {
			t.Fatalf("figure %d missing", n)
		}
		if spec.Number != n || spec.Caption == "" {
			t.Errorf("spec %d malformed: %+v", n, spec)
		}
	}
	if Specs[5].Metric != HighPriorityTime || Specs[7].Metric != OverallTime {
		t.Error("metrics wrong")
	}
	if !Specs[5].ShortHigh || Specs[6].ShortHigh {
		t.Error("short-high flags wrong")
	}
}

func TestRunFigureUnknownNumber(t *testing.T) {
	if _, err := RunFigure(9, ScaleSmall, nil); err == nil {
		t.Fatal("figure 9 accepted")
	}
}

// TestFigure5Shape is the headline regression test: the reproduced Figure
// 5 must keep the paper's qualitative shape.
func TestFigure5Shape(t *testing.T) {
	fig, err := RunFigure(5, ScaleSmall, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Panels) != 3 {
		t.Fatalf("panels = %d", len(fig.Panels))
	}
	for pi, panel := range fig.Panels {
		if len(panel.Points) != len(WriteRatios) {
			t.Fatalf("panel %d: %d points", pi, len(panel.Points))
		}
		// Normalization: unmodified at 0% writes is exactly 1.
		if panel.Points[0].Unmodified != 1.0 {
			t.Errorf("panel %d: unmodified@0 = %f", pi, panel.Points[0].Unmodified)
		}
	}
	// Panels (a) and (b): the modified VM wins at every write ratio.
	for pi := 0; pi < 2; pi++ {
		for _, pt := range fig.Panels[pi].Points {
			if pt.Modified >= pt.Unmodified {
				t.Errorf("panel %d wp=%d: modified %.3f did not beat unmodified %.3f",
					pi, pt.WritePct, pt.Modified, pt.Unmodified)
			}
		}
	}
	// Panel (c): near parity — the benefit has largely vanished, and heavy
	// writes may tip it against the modified VM (the paper's crossover).
	c := fig.Panels[2]
	if c.Points[0].Modified > 1.05 {
		t.Errorf("panel (c) at 0%% writes: modified %.3f far above parity", c.Points[0].Modified)
	}
	if c.Points[len(c.Points)-1].Modified < c.Points[0].Modified {
		t.Errorf("panel (c): no upward trend with writes")
	}
}

// TestFigure7OverheadShape: overall elapsed time of the modified VM is
// never below the unmodified VM (§4.2: "the overall elapsed time for the
// modified VM must always be longer").
func TestFigure7OverheadShape(t *testing.T) {
	fig, err := RunFigure(7, ScaleSmall, nil)
	if err != nil {
		t.Fatal(err)
	}
	for pi, panel := range fig.Panels {
		for _, pt := range panel.Points {
			if float64(pt.RawMod) < float64(pt.RawUnmod)*0.999 {
				t.Errorf("panel %d wp=%d: modified overall %d below unmodified %d",
					pi, pt.WritePct, pt.RawMod, pt.RawUnmod)
			}
		}
	}
}

func TestProgressCallback(t *testing.T) {
	calls := 0
	_, err := RunFigure(5, ScaleSmall, func(mix Mix, wp int, vm VM, res CellResult) {
		calls++
		if res.HighSpan <= 0 {
			t.Error("callback got empty result")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := len(Mixes) * len(WriteRatios) * 2
	if calls != want {
		t.Fatalf("progress calls = %d, want %d", calls, want)
	}
}

func TestSummarize(t *testing.T) {
	mk := func(metric Metric, mod, unmod simtime.Ticks) Figure {
		return Figure{
			Metric: metric,
			Panels: []Panel{{
				Mix:    Mix{2, 8},
				Points: []Point{{RawMod: mod, RawUnmod: unmod, Modified: 1, Unmodified: 1}},
			}},
		}
	}
	s := Summarize(
		[]Figure{mk(HighPriorityTime, 50, 100)},
		[]Figure{mk(OverallTime, 130, 100)},
	)
	if s.GainPct != 50 || s.GainPctFavorable != 50 {
		t.Errorf("gain = %f/%f, want 50", s.GainPct, s.GainPctFavorable)
	}
	if s.SpeedupFavorable != 2 {
		t.Errorf("speedup = %f, want 2", s.SpeedupFavorable)
	}
	if s.OverallOverheadPct != 30 {
		t.Errorf("overhead = %f, want 30", s.OverallOverheadPct)
	}
}

func TestSummarizeExcludesUnfavorableFromFavorable(t *testing.T) {
	fig := Figure{
		Metric: HighPriorityTime,
		Panels: []Panel{
			{Mix: Mix{2, 8}, Points: []Point{{RawMod: 50, RawUnmod: 100}}},
			{Mix: Mix{8, 2}, Points: []Point{{RawMod: 100, RawUnmod: 100}}},
		},
	}
	s := Summarize([]Figure{fig}, nil)
	if s.GainPctFavorable != 50 {
		t.Errorf("favorable gain = %f, want 50 (8+2 excluded)", s.GainPctFavorable)
	}
	if s.GainPct != 25 {
		t.Errorf("all-mix gain = %f, want 25", s.GainPct)
	}
}

func TestRenderFormats(t *testing.T) {
	fig, err := RunFigure(5, ScaleSmall, nil)
	if err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	fig.Render(&text)
	for _, want := range []string{"Figure 5", "(a) 2 high + 8 low", "(b) 5 high + 5 low", "(c) 8 high + 2 low", "writes%"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("Render missing %q", want)
		}
	}
	var csv strings.Builder
	fig.RenderCSV(&csv)
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	want := 1 + len(Mixes)*len(WriteRatios)*2 // header + 2 rows per cell
	if len(lines) != want {
		t.Errorf("CSV lines = %d, want %d", len(lines), want)
	}
	if !strings.HasPrefix(lines[0], "figure,panel") {
		t.Errorf("CSV header = %q", lines[0])
	}
	var sum strings.Builder
	Summary{GainPct: 1, GainPctFavorable: 2, SpeedupFavorable: 3, OverallOverheadPct: 4}.Render(&sum)
	if !strings.Contains(sum.String(), "Headline claims") {
		t.Error("summary render wrong")
	}
}

func TestVMString(t *testing.T) {
	if Modified.String() != "MODIFIED" || Unmodified.String() != "UNMODIFIED" {
		t.Error("VM strings wrong")
	}
	if (Mix{2, 8}).String() != "2 high + 8 low" {
		t.Error("Mix string wrong")
	}
	if HighPriorityTime.String() == OverallTime.String() {
		t.Error("metric strings collide")
	}
}

// TestShapeStableAcrossSeeds guards the headline result against seed luck:
// on the favorable 2+8 mix the modified VM must beat the unmodified VM for
// several different arrival-randomization seeds.
func TestShapeStableAcrossSeeds(t *testing.T) {
	for _, seed := range []int64{1, 42, 20040815, 987654321} {
		p := CellParams(ScaleSmall, true, Mix{High: 2, Low: 8}, 40)
		p.Seed = seed
		un, err := RunCell(Unmodified, p)
		if err != nil {
			t.Fatal(err)
		}
		mo, err := RunCell(Modified, p)
		if err != nil {
			t.Fatal(err)
		}
		if mo.HighSpan >= un.HighSpan {
			t.Errorf("seed %d: modified %d did not beat unmodified %d", seed, mo.HighSpan, un.HighSpan)
		}
		if mo.Stats.Rollbacks == 0 && mo.Stats.PreemptedGrants == 0 {
			t.Errorf("seed %d: no revocation activity", seed)
		}
	}
}
