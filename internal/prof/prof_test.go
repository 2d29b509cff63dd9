package prof

import (
	"reflect"
	"testing"

	"repro/internal/simtime"
	"repro/internal/trace"
)

// findSample returns the value of the sample whose leaf-first stack renders
// as the given (func, pc) frames, or 0 when absent.
func findSample(s *Snapshot, dim Dim, stack ...Frame) int64 {
	for _, smp := range s.Dims[dim] {
		if reflect.DeepEqual(smp.Stack, stack) {
			return smp.Value
		}
	}
	return 0
}

// vmThread drives one profiled thread the way the runtime does: pc is the
// site register the profiler reads, tick is the runtime's charge, and
// everything else arrives as events on a virtual clock.
type vmThread struct {
	p    *Profiler
	tp   *ThreadProf
	name string
	pc   int
	now  simtime.Ticks
}

func newThread(p *Profiler, name string) *vmThread {
	v := &vmThread{p: p, name: name}
	v.tp = p.Thread(name, &v.pc)
	return v
}

func (v *vmThread) tick(d simtime.Ticks) {
	v.now += d
	v.tp.Tick(v.now, d)
}

func (v *vmThread) emit(kind trace.Kind, mon string) {
	v.p.Emit(trace.Event{At: v.now, Kind: kind, Thread: v.name, Object: mon})
}

func (v *vmThread) enter(mon string)    { v.emit(trace.MonitorAcquired, mon) }
func (v *vmThread) exit(mon string)     { v.emit(trace.MonitorExit, mon) }
func (v *vmThread) rollback(mon string) { v.emit(trace.Rollback, mon) }

// block parks the thread on mon for d ticks: MonitorBlocked, then the
// thread's next dispatch.
func (v *vmThread) block(mon string, d simtime.Ticks) {
	v.emit(trace.MonitorBlocked, mon)
	v.now += d
	v.emit(trace.ContextSwitch, "")
}

func TestTickAttribution(t *testing.T) {
	p := New()
	v := newThread(p, "T")
	v.pc = 3
	v.tick(10)
	v.tp.Push("m")
	v.pc = 7
	v.tick(5)
	v.tp.PopTo(0)
	v.pc = 4
	v.tick(2)

	s := p.Snapshot()
	if got := s.Totals[Work]; got != 17 {
		t.Fatalf("work total = %d, want 17", got)
	}
	if v := findSample(s, Work, Frame{"T", 3}); v != 10 {
		t.Errorf("root site T@3 = %d ticks, want 10", v)
	}
	// The callee's stack records the caller's pc at the call site.
	if v := findSample(s, Work, Frame{"m", 7}, Frame{"T", 3}); v != 5 {
		t.Errorf("callee site m@7 under T@3 = %d ticks, want 5", v)
	}
	if v := findSample(s, Work, Frame{"T", 4}); v != 2 {
		t.Errorf("post-return site T@4 = %d ticks, want 2", v)
	}
	if v.tp.Depth() != 0 {
		t.Errorf("depth = %d after PopTo(0)", v.tp.Depth())
	}
}

func TestSectionRollbackReclassifies(t *testing.T) {
	p := New()
	v := newThread(p, "T")
	v.pc = 1
	v.tick(100) // outside any section: permanent

	v.enter("A")
	v.pc = 2
	v.tick(30)
	v.enter("B") // nested
	v.pc = 3
	v.tick(12)
	v.rollback("A") // roll back the outermost frame

	s := p.Snapshot()
	if s.Totals[Work] != 100 || s.Totals[Waste] != 42 {
		t.Fatalf("work=%d waste=%d, want 100/42", s.Totals[Work], s.Totals[Waste])
	}
	// The retracted cells move wholesale: zeroed Work cells disappear.
	if v := findSample(s, Work, Frame{"T", 2}); v != 0 {
		t.Errorf("rolled-back work cell T@2 still present with %d ticks", v)
	}
	if v := findSample(s, Waste, Frame{"T", 2}); v != 30 {
		t.Errorf("waste cell T@2 = %d, want 30", v)
	}
	if v := findSample(s, Waste, Frame{"T", 3}); v != 12 {
		t.Errorf("waste cell T@3 = %d, want 12", v)
	}
	// The pre-section tick never entered the journal.
	if v := findSample(s, Work, Frame{"T", 1}); v != 100 {
		t.Errorf("permanent work T@1 = %d, want 100", v)
	}
	// Marks were truncated to idx: a re-execution re-enters from scratch.
	if len(v.tp.marks) != 0 || len(v.tp.journal) != 0 {
		t.Errorf("marks=%d journal=%d after rollback, want 0/0", len(v.tp.marks), len(v.tp.journal))
	}
}

func TestPartialRollbackKeepsOuterJournal(t *testing.T) {
	p := New()
	v := newThread(p, "T")
	v.enter("A")
	v.pc = 1
	v.tick(5)
	v.enter("B")
	v.pc = 2
	v.tick(7)
	v.rollback("B") // inner frame only

	if got := p.Total(Waste); got != 7 {
		t.Fatalf("waste = %d, want 7", got)
	}
	// The outer frame's journal survives: a later outer rollback retracts
	// the remaining 5.
	v.rollback("A")
	if got := p.Total(Waste); got != 12 {
		t.Fatalf("waste after outer rollback = %d, want 12", got)
	}
	if got := p.Total(Work); got != 0 {
		t.Fatalf("work after full rollback = %d, want 0", got)
	}
}

func TestSectionCommitClearsJournal(t *testing.T) {
	p := New()
	v := newThread(p, "T")
	v.enter("A")
	v.pc = 1
	v.tick(9)
	v.exit("A") // outermost commit: ticks become permanent

	v.enter("A")
	v.pc = 2
	v.tick(4)
	v.rollback("A")

	s := p.Snapshot()
	if s.Totals[Work] != 9 || s.Totals[Waste] != 4 {
		t.Fatalf("work=%d waste=%d, want 9/4 — committed ticks must not be retractable",
			s.Totals[Work], s.Totals[Waste])
	}
}

func TestWaitTruncateCommitsInPlace(t *testing.T) {
	p := New()
	v := newThread(p, "T")
	v.enter("A")
	v.pc = 1
	v.tick(50)
	v.emit(trace.WaitStart, "A") // Object.wait released the monitor mid-section
	v.now += 20
	v.emit(trace.ContextSwitch, "") // notified; a dispatch does not end the wait
	v.now += 6
	v.emit(trace.WaitEnd, "A")
	v.pc = 2
	v.tick(8)
	v.rollback("A")

	s := p.Snapshot()
	// Only the post-wait ticks are retractable.
	if s.Totals[Work] != 50 || s.Totals[Waste] != 8 {
		t.Fatalf("work=%d waste=%d, want 50/8", s.Totals[Work], s.Totals[Waste])
	}
	// The whole wait, re-acquisition included, is blocked time at the
	// waiting site.
	if v := findSample(s, Block, Frame{"monitor:A", 0}, Frame{"T", 1}); v != 26 {
		t.Errorf("wait block sample = %d, want 26; got %+v", v, s.Dims[Block])
	}
}

func TestBlockTickAuxFrameAndNoJournal(t *testing.T) {
	p := New()
	v := newThread(p, "T")
	v.enter("A")
	v.pc = 6
	v.block("M", 11)
	v.rollback("A")

	s := p.Snapshot()
	if s.Totals[Block] != 11 || s.Totals[Waste] != 0 {
		t.Fatalf("block=%d waste=%d, want 11/0 — blocked time is not CPU and never rolls back",
			s.Totals[Block], s.Totals[Waste])
	}
	// The contended monitor is the pseudo-leaf; the waiting site follows.
	if v := findSample(s, Block, Frame{"monitor:M", 0}, Frame{"T", 6}); v != 11 {
		t.Errorf("block sample = %d, want 11 under monitor:M leaf; got dims %+v", v, s.Dims[Block])
	}
}

func TestSchedTickSyntheticRoot(t *testing.T) {
	p := New()
	p.Emit(trace.Event{Kind: trace.ContextSwitch, Thread: "T", N: 4})
	p.Emit(trace.Event{Kind: trace.SchedIdle, N: 6})
	p.Emit(trace.Event{Kind: trace.ContextSwitch, Thread: "T"}) // no switch cost

	s := p.Snapshot()
	if s.Totals[Sched] != 10 {
		t.Fatalf("sched total = %d, want 10", s.Totals[Sched])
	}
	if v := findSample(s, Sched, Frame{"<idle>", 0}); v != 6 {
		t.Errorf("<idle> = %d, want 6", v)
	}
	if v := findSample(s, Sched, Frame{"<context-switch>", 0}); v != 4 {
		t.Errorf("<context-switch> = %d, want 4", v)
	}
}

func TestTopRanksLeafSites(t *testing.T) {
	p := New()
	a := newThread(p, "A")
	a.pc = 1
	a.tick(5)
	a.tp.Push("m")
	a.pc = 2
	a.tick(20) // same leaf (m, 2) from a different path
	b := newThread(p, "B")
	b.tp.Push("m")
	b.pc = 2
	b.tick(30)

	top := p.Snapshot().Top(Work, 2)
	if len(top) != 2 {
		t.Fatalf("top = %+v, want 2 sites", top)
	}
	if top[0].Func != "m" || top[0].PC != 2 || top[0].Ticks != 50 {
		t.Errorf("top[0] = %+v, want m@2 with 50 ticks aggregated across paths", top[0])
	}
	if top[1].Func != "A" || top[1].Ticks != 5 {
		t.Errorf("top[1] = %+v, want A@1 with 5", top[1])
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	build := func() *Snapshot {
		p := New()
		for _, name := range []string{"T1", "T2", "T3"} {
			v := newThread(p, name)
			for pc := 1; pc <= 5; pc++ {
				v.pc = pc
				v.tick(3)
			}
		}
		p.Emit(trace.Event{Kind: trace.SchedIdle, N: 2})
		return p.Snapshot()
	}
	if a, b := build(), build(); !reflect.DeepEqual(a, b) {
		t.Errorf("snapshots of identical runs differ:\n%+v\n%+v", a, b)
	}
}

// TestEventMatching pins how the stream's events find their thread and
// frame: a Rollback naming a monitor no frame holds (a revoked pending
// grant) rolls nothing back, events of unregistered threads are ignored,
// and an entry block ends at the thread's own next dispatch, not another
// thread's.
func TestEventMatching(t *testing.T) {
	p := New()
	v := newThread(p, "T")
	w := newThread(p, "U")
	v.enter("A")
	v.pc = 4
	v.tick(10)
	v.rollback("B") // pending grant on B: no frame holds it
	p.Emit(trace.Event{Kind: trace.Rollback, Thread: "ghost", Object: "A"})
	if got := p.Total(Waste); got != 0 {
		t.Fatalf("waste = %d after foreign rollbacks, want 0", got)
	}
	v.emit(trace.MonitorBlocked, "M")
	w.now = v.now + 5
	w.emit(trace.ContextSwitch, "")
	v.now += 9
	v.emit(trace.ContextSwitch, "")
	if got := p.Total(Block); got != 9 {
		t.Errorf("block = %d, want 9 (ended by T's own dispatch)", got)
	}
	v.rollback("A")
	if got := p.Total(Waste); got != 10 {
		t.Errorf("waste = %d after the real rollback, want 10", got)
	}
}
