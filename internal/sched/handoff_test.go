package sched

import (
	"runtime"
	"strings"
	"testing"
)

// coroutines counts the live goroutines iter.Pull created: the thread
// coroutines of every scheduler in the process. runtime.NumGoroutine would
// also count test-runner goroutines that exit on their own schedule.
func coroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "created by iter.Pull")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestDrainReclaimsEveryParkedState: a panicking body ends Run with an
// error while other threads sit blocked, asleep, runnable after a yield,
// and never started. Drain ends all of them at once: parked bodies unwind
// (their defers run), the never-started body never runs, and every
// coroutine is gone when Drain returns.
func TestDrainReclaimsEveryParkedState(t *testing.T) {
	before := coroutines()
	s := newTestSched(Config{})
	unwound := map[string]bool{}
	park := func(name string, wait func(th *Thread)) {
		s.Spawn(name, NormPriority, func(th *Thread) {
			defer func() { unwound[name] = true }()
			wait(th)
			t.Errorf("%s resumed after Drain", name)
		})
	}
	park("blocked", func(th *Thread) { th.Block("forever") })
	park("sleeping", func(th *Thread) { th.Sleep(1_000_000) })
	park("runnable", func(th *Thread) {
		for {
			th.Yield()
		}
	})
	var fresh *Thread
	s.Spawn("boom", NormPriority, func(th *Thread) {
		fresh = s.Spawn("fresh", NormPriority, func(*Thread) { t.Error("never-started body ran") })
		panic("kaboom")
	})

	err := s.Run()
	if err == nil || !strings.Contains(err.Error(), `"boom" panicked: kaboom`) {
		t.Fatalf("Run err = %v, want boom's panic", err)
	}
	want := map[string]State{"blocked": StateBlocked, "sleeping": StateSleeping, "runnable": StateRunnable, "fresh": StateRunnable}
	for _, th := range s.Threads() {
		if st, ok := want[th.Name()]; ok && th.State() != st {
			t.Errorf("%s in state %v before Drain, want %v", th.Name(), th.State(), st)
		}
	}
	if fresh.Switches() != 0 {
		t.Fatalf("fresh dispatched %d times, want never started", fresh.Switches())
	}

	s.Drain()
	for _, name := range []string{"blocked", "sleeping", "runnable"} {
		if !unwound[name] {
			t.Errorf("%s did not unwind", name)
		}
	}
	for _, th := range s.Threads() {
		if th.State() != StateDone {
			t.Errorf("%s in state %v after Drain", th.Name(), th.State())
		}
	}
	if after := coroutines(); after != before {
		t.Fatalf("coroutines: %d after Drain, %d before Spawn", after, before)
	}
}

// TestFinishedThreadsLeaveNoGoroutines: threads that run to completion,
// including ones spawned by running threads, end their coroutines with
// Run.
func TestFinishedThreadsLeaveNoGoroutines(t *testing.T) {
	before := coroutines()
	s := newTestSched(Config{Quantum: 3})
	var order []string
	s.Spawn("parent", NormPriority, func(th *Thread) {
		for i := 0; i < 3; i++ {
			name := string(rune('a' + i))
			s.Spawn(name, NormPriority, func(th *Thread) {
				th.Advance(2)
				th.YieldPoint()
				order = append(order, name)
			})
			th.Advance(2)
			th.YieldPoint()
		}
		order = append(order, "parent")
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ","); got != "a,parent,b,c" {
		t.Fatalf("completion order = %s", got)
	}
	if after := coroutines(); after != before {
		t.Fatalf("coroutines: %d after Run, %d before Spawn", after, before)
	}
}
