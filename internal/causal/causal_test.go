package causal

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/simtime"
	"repro/internal/trace"
)

func ev(at int64, k trace.Kind, thread, object, other string, n int64) trace.Event {
	return trace.Event{At: simtime.Ticks(at), Kind: k, Thread: thread, Object: object, Other: other, N: n}
}

func mustBuild(t *testing.T, events []trace.Event) *Graph {
	t.Helper()
	g, err := Build(events, Options{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func mustPath(t *testing.T, g *Graph) *Attribution {
	t.Helper()
	if err := g.CheckInvariant(); err != nil {
		t.Fatalf("CheckInvariant: %v", err)
	}
	a, err := g.CriticalPath()
	if err != nil {
		t.Fatalf("CriticalPath: %v", err)
	}
	return a
}

func TestSingleThread(t *testing.T) {
	g := mustBuild(t, []trace.Event{
		ev(0, trace.ThreadStart, "T", "", "", 5),
		ev(0, trace.ContextSwitch, "T", "", "", 0),
		ev(100, trace.ThreadEnd, "T", "", "", 0),
	})
	if g.FinalClock != 100 {
		t.Fatalf("FinalClock = %d, want 100", g.FinalClock)
	}
	a := mustPath(t, g)
	if len(a.Pieces) != 1 || a.Pieces[0] != (PathPiece{Thread: "T", From: 0, To: 100}) {
		t.Fatalf("pieces = %+v", a.Pieces)
	}
	if a.ClassTotals[Work] != 100 {
		t.Fatalf("work = %d, want 100 (totals %v)", a.ClassTotals[Work], a.ClassTotals)
	}
}

// Contention handoff: B blocks on M held by A; the release→acquire edge
// makes B's acquisition reachable and the blocked span critical.
func TestHandoffAndCriticalContention(t *testing.T) {
	g := mustBuild(t, []trace.Event{
		ev(0, trace.ThreadStart, "A", "", "", 5),
		ev(0, trace.ThreadStart, "B", "", "", 5),
		ev(0, trace.ContextSwitch, "A", "", "", 0),
		ev(5, trace.MonitorAcquired, "A", "M", "", 0),
		ev(10, trace.ContextSwitch, "B", "", "", 0),
		ev(10, trace.MonitorBlocked, "B", "M", "A", 0),
		ev(12, trace.ContextSwitch, "A", "", "", 0),
		ev(15, trace.MonitorExit, "A", "M", "", 0),
		ev(20, trace.ThreadEnd, "A", "", "", 0),
		ev(20, trace.ContextSwitch, "B", "", "", 0),
		ev(20, trace.MonitorAcquired, "B", "M", "", 0),
		ev(25, trace.MonitorExit, "B", "M", "", 0),
		ev(30, trace.ThreadEnd, "B", "", "", 0),
	})
	a := mustPath(t, g)
	if a.Clock != 30 {
		t.Fatalf("clock = %d, want 30", a.Clock)
	}
	if got := a.CritBlock["M"]; got != 10 {
		t.Fatalf("critical contention on M = %d, want 10", got)
	}
	if got := a.RawBlock["M"]; got != 10 {
		t.Fatalf("raw contention on M = %d, want 10", got)
	}
	// The blocked span [10,20] sits on B's timeline, the only path thread.
	if len(a.Pieces) != 1 || a.Pieces[0].Thread != "B" {
		t.Fatalf("pieces = %+v, want single piece on B", a.Pieces)
	}
}

// A spawn edge is what ties a mid-run child back to time zero; the spawn
// point also splits the parent's timeline at the hop.
func TestSpawnEdge(t *testing.T) {
	g := mustBuild(t, []trace.Event{
		ev(0, trace.ThreadStart, "P", "", "", 5),
		ev(0, trace.ContextSwitch, "P", "", "", 0),
		ev(5, trace.ThreadStart, "C", "", "P", 7),
		ev(10, trace.ThreadEnd, "P", "", "", 0),
		ev(10, trace.ContextSwitch, "C", "", "", 0),
		ev(40, trace.ThreadEnd, "C", "", "", 0),
	})
	a := mustPath(t, g)
	want := []PathPiece{{Thread: "P", From: 0, To: 5}, {Thread: "C", From: 5, To: 40}}
	if len(a.Pieces) != 2 || a.Pieces[0] != want[0] || a.Pieces[1] != want[1] {
		t.Fatalf("pieces = %+v, want %+v", a.Pieces, want)
	}
	if c := g.Thread("C"); c.Spawner != "P" {
		t.Fatalf("spawner = %q, want P", c.Spawner)
	}
}

// A child starting mid-run with no spawner is an incomplete DAG: Build
// rejects an unknown spawner, and a root-looking start at t>0 fails the
// invariant instead of silently shortening the longest path.
func TestMissingSpawnEdgeDetected(t *testing.T) {
	_, err := Build([]trace.Event{
		ev(0, trace.ThreadStart, "P", "", "", 5),
		{At: 5, Kind: trace.ThreadStart, Thread: "C", Other: "ghost"},
	}, Options{})
	if err == nil || !strings.Contains(err.Error(), "unknown thread") {
		t.Fatalf("err = %v, want unknown-spawner rejection", err)
	}

	g := mustBuild(t, []trace.Event{
		ev(0, trace.ThreadStart, "P", "", "", 5),
		ev(0, trace.ContextSwitch, "P", "", "", 0),
		ev(10, trace.ThreadEnd, "P", "", "", 0),
		ev(5, trace.ThreadStart, "C", "", "", 0), // no spawner, not at t=0
		ev(12, trace.ContextSwitch, "C", "", "", 0),
		ev(20, trace.ThreadEnd, "C", "", "", 0),
	})
	if err := g.CheckInvariant(); err == nil || !strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("CheckInvariant = %v, want unreachable-point failure", err)
	}
}

// Rollback: the run ticks inside the revoked section reclassify as waste,
// the rollback point releases the monitor for the handoff edge, and the
// revocation-request edge ties the victim's wakeup to the requester.
func TestRollbackWaste(t *testing.T) {
	g := mustBuild(t, []trace.Event{
		ev(0, trace.ThreadStart, "V", "", "", 3),
		ev(0, trace.ThreadStart, "R", "", "", 8),
		ev(0, trace.ContextSwitch, "V", "", "", 0),
		ev(2, trace.MonitorAcquired, "V", "M", "", 0),
		ev(10, trace.ContextSwitch, "R", "", "", 0),
		ev(11, trace.MonitorBlocked, "R", "M", "V", 0),
		ev(11, trace.RevokeRequested, "V", "M", "R", 0),
		ev(12, trace.ContextSwitch, "V", "", "", 0),
		ev(12, trace.Rollback, "V", "M", "R", 10),
		ev(14, trace.ContextSwitch, "R", "", "", 0),
		ev(14, trace.MonitorAcquired, "R", "M", "", 0),
		ev(20, trace.MonitorExit, "R", "M", "", 0),
		ev(25, trace.ThreadEnd, "R", "", "", 0),
		ev(25, trace.ContextSwitch, "V", "", "", 0),
		ev(30, trace.ThreadEnd, "V", "", "", 0),
	})
	a := mustPath(t, g)
	if got := a.CritWaste["M"]; got != 8 {
		t.Fatalf("critical waste on M = %d, want 8 ([2,10] of the revoked section)", got)
	}
	if a.ClassTotals[Waste] != 8 {
		t.Fatalf("waste total = %d, want 8", a.ClassTotals[Waste])
	}
	// SuggestExperiments must include the revocation ablation.
	exps := SuggestExperiments(a, 3)
	var hasNoRevoke bool
	for _, e := range exps {
		if e.Kind == "norevoke" && e.Target == "M" {
			hasNoRevoke = true
		}
	}
	if !hasNoRevoke {
		t.Fatalf("experiments %+v missing norevoke:M", exps)
	}
}

// Sleep spans close at the timer deadline; scheduler idle jumps subtract
// from the preceding run window so yield moments reconstruct exactly.
func TestSleepAndIdle(t *testing.T) {
	g := mustBuild(t, []trace.Event{
		ev(0, trace.ThreadStart, "S", "", "", 5),
		ev(0, trace.ContextSwitch, "S", "", "", 0),
		ev(5, trace.Sleep, "S", "", "", 10),
		ev(15, trace.SchedIdle, "", "", "", 10),
		ev(15, trace.ContextSwitch, "S", "", "", 0),
		ev(20, trace.ThreadEnd, "S", "", "", 0),
	})
	a := mustPath(t, g)
	if a.ClassTotals[Sleep] != 10 || a.ClassTotals[Work] != 10 || a.ClassTotals[Sched] != 0 {
		t.Fatalf("totals = %v, want work 10 / sleep 10 / sched 0", a.ClassTotals)
	}
}

// Context-switch cost lands in sched, not in the previous thread's work:
// the N payload carries the cost so the yield moment reconstructs.
func TestSwitchCostIsSched(t *testing.T) {
	g := mustBuild(t, []trace.Event{
		ev(0, trace.ThreadStart, "A", "", "", 5),
		ev(0, trace.ContextSwitch, "A", "", "", 0),
		ev(10, trace.ContextSwitch, "A", "", "", 3), // yielded at 7, 3 ticks of switch cost
		ev(20, trace.ThreadEnd, "A", "", "", 0),
	})
	a := mustPath(t, g)
	if a.ClassTotals[Work] != 17 || a.ClassTotals[Sched] != 3 {
		t.Fatalf("totals = %v, want work 17 / sched 3", a.ClassTotals)
	}
}

// Wait/notify: the wait span is critical block time and the notify and
// release edges make the wakeup reachable.
func TestWaitNotify(t *testing.T) {
	g := mustBuild(t, []trace.Event{
		ev(0, trace.ThreadStart, "W", "", "", 5),
		ev(0, trace.ThreadStart, "N", "", "", 5),
		ev(0, trace.ContextSwitch, "W", "", "", 0),
		ev(2, trace.MonitorAcquired, "W", "M", "", 0),
		ev(3, trace.WaitStart, "W", "M", "", 0),
		ev(3, trace.ContextSwitch, "N", "", "", 0),
		ev(5, trace.MonitorAcquired, "N", "M", "", 0),
		ev(7, trace.Notify, "N", "M", "", 0),
		ev(8, trace.MonitorExit, "N", "M", "", 0),
		ev(10, trace.ThreadEnd, "N", "", "", 0),
		ev(10, trace.ContextSwitch, "W", "", "", 0),
		ev(10, trace.WaitEnd, "W", "M", "", 0),
		ev(12, trace.MonitorExit, "W", "M", "", 0),
		ev(15, trace.ThreadEnd, "W", "", "", 0),
	})
	a := mustPath(t, g)
	if got := a.CritBlock["M"]; got != 7 {
		t.Fatalf("critical block on M = %d, want 7 (the wait span)", got)
	}
	var waitSeg bool
	for _, s := range a.Segments {
		if s.Class == Block && s.Wait && s.Monitor == "M" {
			waitSeg = true
		}
	}
	if !waitSeg {
		t.Fatalf("segments %+v missing wait-flagged block", a.Segments)
	}
}

func TestTruncatedStream(t *testing.T) {
	events := []trace.Event{
		// No ThreadStart for T: a wrapped flight-recorder ring.
		ev(50, trace.ContextSwitch, "T", "", "", 0),
		ev(80, trace.ThreadEnd, "T", "", "", 0),
	}
	if _, err := Build(events, Options{}); err == nil {
		t.Fatal("Build accepted a truncated stream without AllowTruncated")
	}
	g, err := Build(events, Options{AllowTruncated: true})
	if err != nil {
		t.Fatalf("Build(AllowTruncated): %v", err)
	}
	if !g.Truncated {
		t.Fatal("Truncated flag not set")
	}
	if err := g.CheckInvariant(); err == nil {
		t.Fatal("CheckInvariant passed on a truncated graph")
	}
}

// The same events must yield the same graph whether they came from a live
// sink or a flight-recorder dump — Build is a pure function of the slice.
func TestBuildIsPure(t *testing.T) {
	events := []trace.Event{
		ev(0, trace.ThreadStart, "A", "", "", 5),
		ev(0, trace.ContextSwitch, "A", "", "", 0),
		ev(5, trace.ThreadStart, "C", "", "A", 3),
		ev(12, trace.ThreadEnd, "A", "", "", 0),
		ev(12, trace.ContextSwitch, "C", "", "", 0),
		ev(30, trace.ThreadEnd, "C", "", "", 0),
	}
	g1 := mustBuild(t, events)
	g2 := mustBuild(t, append([]trace.Event(nil), events...))
	a1, a2 := mustPath(t, g1), mustPath(t, g2)
	var b1, b2 bytes.Buffer
	RenderReport(&b1, g1, a1, 5)
	RenderReport(&b2, g2, a2, 5)
	if b1.String() != b2.String() {
		t.Fatalf("reports differ:\n%s\n---\n%s", b1.String(), b2.String())
	}
}

func TestSiteRecorder(t *testing.T) {
	r := NewSiteRecorder()
	// Contiguous same-site charges coalesce.
	r.Add("T", 5, 5, "f", 3)
	r.Add("T", 9, 4, "f", 3)
	r.Add("T", 12, 3, "g", 1)
	if got := r.threads["T"].n; got != 2 {
		t.Fatalf("runs = %d, want 2 after coalescing", got)
	}

	g := mustBuild(t, []trace.Event{
		ev(0, trace.ThreadStart, "T", "", "", 5),
		ev(0, trace.ContextSwitch, "T", "", "", 0),
		ev(12, trace.ThreadEnd, "T", "", "", 0),
	})
	a := mustPath(t, g)
	r.AttachSites(a)
	if got := a.Sites[SiteKey{Method: "f", PC: 3}]; got != 9 {
		t.Fatalf("site f@3 = %d, want 9", got)
	}
	if got := a.Sites[SiteKey{Method: "g", PC: 1}]; got != 3 {
		t.Fatalf("site g@1 = %d, want 3", got)
	}
}

// TestSiteRecorderChunks: runs spanning several chunks, re-visited sites,
// a negative pc and a charge longer than one run holds all attribute
// exactly as the plain sum of the charges.
func TestSiteRecorderChunks(t *testing.T) {
	r := NewSiteRecorder()
	want := make(map[SiteKey]simtime.Ticks)
	var now simtime.Ticks
	add := func(d simtime.Ticks, fn string, pc int) {
		now += d
		r.Add("T", now, d, fn, pc)
		want[SiteKey{Method: fn, PC: pc}] += d
	}
	for i := 0; i < 3*siteChunk; i++ {
		add(simtime.Ticks(1+i%3), "loop", i%7)
		if i%5 == 0 {
			add(2, "callee", -1)
		}
	}
	add(maxRunTick+5, "long", 0)
	if n := r.threads["T"].n; n <= 2*siteChunk {
		t.Fatalf("runs = %d, want more than two chunks' worth", n)
	}
	if len(r.sites) != 7+1+1+1 {
		t.Fatalf("interned %d sites, want 9 plus the unused id", len(r.sites))
	}

	g := mustBuild(t, []trace.Event{
		ev(0, trace.ThreadStart, "T", "", "", 5),
		ev(0, trace.ContextSwitch, "T", "", "", 0),
		ev(int64(now), trace.ThreadEnd, "T", "", "", 0),
	})
	a := mustPath(t, g)
	r.AttachSites(a)
	if !reflect.DeepEqual(a.Sites, want) {
		t.Fatalf("sites = %v, want %v", a.Sites, want)
	}
}

func TestFoldedOutput(t *testing.T) {
	g := mustBuild(t, []trace.Event{
		ev(0, trace.ThreadStart, "A", "", "", 5),
		ev(0, trace.ThreadStart, "B", "", "", 5),
		ev(0, trace.ContextSwitch, "A", "", "", 0),
		ev(5, trace.MonitorAcquired, "A", "M", "", 0),
		ev(10, trace.ContextSwitch, "B", "", "", 0),
		ev(10, trace.MonitorBlocked, "B", "M", "A", 0),
		ev(12, trace.ContextSwitch, "A", "", "", 0),
		ev(15, trace.MonitorExit, "A", "M", "", 0),
		ev(20, trace.ThreadEnd, "A", "", "", 0),
		ev(20, trace.ContextSwitch, "B", "", "", 0),
		ev(20, trace.MonitorAcquired, "B", "M", "", 0),
		ev(30, trace.ThreadEnd, "B", "", "", 0),
	})
	a := mustPath(t, g)
	var buf bytes.Buffer
	if err := WriteFolded(&buf, a); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "B;block;M 10") {
		t.Fatalf("folded output missing critical block line:\n%s", buf.String())
	}
	buf.Reset()
	if err := WritePerfetto(&buf, g, a); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"traceEvents"`) || !strings.Contains(out, `"critical"`) {
		t.Fatalf("perfetto output missing critical flagging:\n%.400s", out)
	}
}

// The what-if engine refuses to report when the zero-perturbation control
// diverges, and converts infeasible-perturbation panics into per-
// experiment errors.
func TestRunWhatIf(t *testing.T) {
	baseline := Outcome{Clock: 100, Fingerprint: "fp"}
	runs := 0
	run := func(p *core.Perturb) (Outcome, error) {
		runs++
		if p.Uncontended["bad"] {
			panic("core: whatif: Wait on bad")
		}
		if p.Uncontended["M"] {
			return Outcome{Clock: 80, Fingerprint: "fp2"}, nil
		}
		return baseline, nil
	}
	exps := []Experiment{
		{Name: "uncontended:M", Target: "M", Kind: "uncontended", Perturb: &core.Perturb{Uncontended: map[string]bool{"M": true}}},
		{Name: "uncontended:bad", Target: "bad", Kind: "uncontended", Perturb: &core.Perturb{Uncontended: map[string]bool{"bad": true}}},
	}
	w, err := RunWhatIf(baseline, run, exps)
	if err != nil {
		t.Fatal(err)
	}
	if !w.ControlOK {
		t.Fatal("control failed, want tick-identical")
	}
	if w.Results[0].SpeedupTicks != 20 {
		t.Fatalf("speedup = %d, want 20", w.Results[0].SpeedupTicks)
	}
	if w.Results[1].Err == "" || !strings.Contains(w.Results[1].Err, "infeasible") {
		t.Fatalf("infeasible experiment err = %q", w.Results[1].Err)
	}

	// Nondeterministic harness: control mismatch must be flagged.
	bad := func(p *core.Perturb) (Outcome, error) { return Outcome{Clock: 99, Fingerprint: "x"}, nil }
	w2, err := RunWhatIf(baseline, bad, nil)
	if err != nil || w2.ControlOK {
		t.Fatalf("ControlOK = %v err = %v, want failed control", w2.ControlOK, err)
	}
	var buf bytes.Buffer
	RenderWhatIf(&buf, w2)
	if !strings.Contains(buf.String(), "CONTROL FAILED") {
		t.Fatalf("render missing control failure:\n%s", buf.String())
	}
}

func TestSuggestExperimentsOrdering(t *testing.T) {
	a := &Attribution{
		Clock:     100,
		CritBlock: map[string]simtime.Ticks{"M_crit": 40, "M_minor": 5},
		RawBlock:  map[string]simtime.Ticks{"M_hot": 70, "M_crit": 40, "M_minor": 5},
		CritWaste: map[string]simtime.Ticks{},
	}
	exps := SuggestExperiments(a, 2)
	if len(exps) < 3 {
		t.Fatalf("experiments = %+v, want critical + raw suggestions", exps)
	}
	if exps[0].Target != "M_crit" {
		t.Fatalf("first experiment targets %q, want the top critical monitor", exps[0].Target)
	}
	var hasHot bool
	for _, e := range exps {
		if e.Target == "M_hot" {
			hasHot = true
		}
	}
	if !hasHot {
		t.Fatalf("experiments %+v missing the hottest-by-raw monitor", exps)
	}
}
