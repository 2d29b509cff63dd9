package main

import (
	"math/rand"
	"testing"

	"repro/internal/interp"
	"repro/revoke"
)

// Each test runs a small real workload, confirms its check accepts the
// VM's output, then damages the output the way a broken VM would and
// confirms the check rejects it.

func TestBankCheckRejectsMissingDebit(t *testing.T) {
	spec := newBankSpec(3, 6, 4, 1, 1, 30, 4)
	r, err := runBank(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkBank(spec, r); err != nil {
		t.Fatalf("check rejects a correct run: %v", err)
	}
	if r.stats.Rollbacks == 0 {
		t.Errorf("no rollbacks: the run does not exercise revocation")
	}
	// Drop one transfer's debit, keeping the account's own checksum
	// consistent so only the ledger can notice.
	tr := spec.transfers[0][0]
	r.balances[tr.from] += tr.amount
	r.checksums[tr.from] = 7 * r.balances[tr.from]
	if err := checkBank(spec, r); err == nil {
		t.Fatal("check accepts a run missing one transfer's debit")
	}
}

func TestBankCheckRejectsInconsistentObservation(t *testing.T) {
	spec := newBankSpec(3, 6, 4, 1, 1, 30, 4)
	r, err := runBank(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.badObs = 1
	if err := checkBank(spec, r); err == nil {
		t.Fatal("check accepts an auditor observation with checksum != 7*balance")
	}
}

func TestFigureCheckRejectsCPUOffByOne(t *testing.T) {
	var cell *figCell
	for _, c := range figCells(1) {
		if c.high == 2 && c.short && c.writePct == 60 {
			cell = c
		}
	}
	un, err := runFigCell(cell, revoke.Unmodified, nil)
	if err != nil {
		t.Fatal(err)
	}
	mo, err := runFigCell(cell, revoke.Revocation, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []figRun{un, mo} {
		if err := checkFigCPU(cell, r); err != nil {
			t.Fatalf("check rejects a correct %v run: %v", r.mode, err)
		}
	}
	if err := checkFigShape(cell, un, mo); err != nil {
		t.Fatalf("shape check rejects a correct cell: %v", err)
	}
	if mo.stats.Rollbacks == 0 || mo.stats.EntriesUndone == 0 {
		t.Fatalf("cell rolls back nothing; the identity's undo terms go untested")
	}
	for _, delta := range []int64{-1, 1} {
		bad := mo
		bad.cpu += delta
		if err := checkFigCPU(cell, bad); err == nil {
			t.Errorf("check accepts a CPU total %+d tick off the identity", delta)
		}
	}
	bad := mo
	bad.stats.EntriesLogged++
	bad.cpu++ // keep the CPU identity, break the committed-log count
	if err := checkFigCPU(cell, bad); err == nil {
		t.Error("check accepts one undo entry too many in committed sections")
	}
	bad = mo
	bad.highSpan = un.highSpan
	if err := checkFigShape(cell, un, bad); err == nil {
		t.Error("shape check accepts a 2+8 cell where revocation does not lower the high-priority span")
	}
}

// smallPrograms generates and loads both programs at test size.
func smallPrograms(t *testing.T) []*program {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	progs := []*program{
		microProgram(rng, 1, 2, 6, 50, 250),
		bankProgram(rng, 4, 3, 1, 1, 8, 8),
	}
	for _, p := range progs {
		if err := p.load(newPhases()); err != nil {
			t.Fatal(err)
		}
	}
	return progs
}

func TestTierCheckRejectsOneStatsCounter(t *testing.T) {
	for _, p := range smallPrograms(t) {
		var runs []*progRun
		for _, tier := range []interp.Tier{interp.TierExec, interp.TierThreaded} {
			r, err := newProgramRun(p, tier, revoke.Config{})
			if err == nil {
				err = r.run()
			}
			if err != nil {
				t.Fatalf("%s on %v: %v", p.name, tier, err)
			}
			if err := p.check(r.env); err != nil {
				t.Fatalf("%s on %v: program check rejects a correct run: %v", p.name, tier, err)
			}
			runs = append(runs, r)
		}
		if err := checkTiers(runs[0], runs[1]); err != nil {
			t.Fatalf("%s: tier check rejects identical tiers: %v", p.name, err)
		}
		runs[1].stats.ContextSwitches++
		if err := checkTiers(runs[0], runs[1]); err == nil {
			t.Errorf("%s: tier check accepts tiers that differ in one Stats counter", p.name)
		}
		runs[1].stats.ContextSwitches--
		h := runs[1].rt.Heap()
		h.SetStatic(0, h.GetStatic(0)+1)
		if err := checkTiers(runs[0], runs[1]); err == nil {
			t.Errorf("%s: tier check accepts tiers whose heaps differ in one slot", p.name)
		}
	}
}

func TestProgramChecksRejectWrongHeap(t *testing.T) {
	for _, p := range smallPrograms(t) {
		r, err := newProgramRun(p, interp.TierThreaded, revoke.Config{})
		if err == nil {
			err = r.run()
		}
		if err != nil {
			t.Fatal(err)
		}
		// Undo one committed update: the micro counter's last increment,
		// or the first account's balance.
		h := r.rt.Heap()
		switch p.name {
		case "micro":
			i, _ := h.StaticIndex("count")
			h.SetStatic(i, h.GetStatic(i)-1)
		case "bank":
			i, _ := h.StaticIndex("accts")
			arr, _ := r.env.Array(h.GetStatic(i))
			o, _ := r.env.Object(arr.Get(0))
			o.Set(0, o.Get(0)+1)
			o.Set(1, 7*o.Get(0))
		}
		if err := p.check(r.env); err == nil {
			t.Errorf("%s: program check accepts a heap with one update lost", p.name)
		}
	}
}

func TestObservedCheckRejectsShortCriticalPath(t *testing.T) {
	micro := smallPrograms(t)[0]
	_, o, err := runObserved(micro, newTally(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkObserved(o); err != nil {
		t.Fatalf("check rejects a correct run: %v", err)
	}
	if o.observerWaste == 0 {
		t.Fatalf("no rollback waste: the waste reconciliation goes untested")
	}
	for name, damage := range map[string]func(*obsRun){
		"a critical path one tick short of the clock": func(o *obsRun) { o.critPath-- },
		"a profiler partition one tick over":          func(o *obsRun) { o.sched++ },
		"observer waste off Stats.WastedTicks":        func(o *obsRun) { o.observerWaste++ },
		"one race report":                             func(o *obsRun) { o.races = 1 },
	} {
		bad := o
		damage(&bad)
		if err := checkObserved(bad); err == nil {
			t.Errorf("check accepts %s", name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] and
	// statistics.quantiles([3, 1, 2, 7, 5, 4, 6], n=4) == [2.0, 4.0, 6.0].
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2, 7, 5, 4, 6}, 2, 6},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestMannWhitney(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	b := []float64{11, 12, 13, 14, 15, 16, 17, 18, 19, 20}
	if u, p := mannWhitney(a, b); u != 0 || p > 0.001 {
		t.Errorf("fully separated samples: U=%v p=%v, want U=0 and p<0.001", u, p)
	}
	if _, p := mannWhitney(a, a); p < 0.9 {
		t.Errorf("identical samples: p=%v, want about 1", p)
	}
}
