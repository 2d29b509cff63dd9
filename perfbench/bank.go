package main

import (
	"fmt"
	"math/rand"

	"repro/revoke"
)

// The bank workload is the contended many-monitor application on the
// revocation runtime. Each account is a monitor. Tellers move money
// between account pairs they lock in random order, so revocation must
// break deadlocks; low-priority batch threads post interest to every
// account in long sections; high-priority auditors scan the accounts.
// Scheduler hand-off and monitor enter/exit dominate; the barrier volume
// is small.
const (
	bankAccounts    = 32
	bankTellers     = 16
	bankAuditors    = 4
	bankBatch       = 4
	bankRounds      = 2000
	bankInitial     = 1000
	bankSectionWork = 800
	bankQuantum     = 200
	// Auditors scan bankAuditRounds times, pausing bankAuditPause ticks
	// on average between scans so the scans spread over the whole run, and
	// spend up to bankAuditWork ticks on each account. The spread of that
	// work keeps the section latency percentiles moving with the seed
	// instead of sitting on one fixed uncontended cost.
	bankAuditRounds = 500
	bankAuditPause  = 300000
	bankAuditWork   = 1000
)

// bankSpec is one seeded bank run's inputs, generated before the run.
type bankSpec struct {
	accounts, rounds      int
	auditors, auditRounds int
	seed                  int64
	transfers             [][]transfer     // per teller, one per round
	audits                [][]audit        // per auditor, one per scan
	batchPauses           [][]revoke.Ticks // per batch thread, one per account per round
	// expected is every account's final balance by the ledger, computed
	// apart from the VM from the transfers and the interest postings.
	expected []revoke.Word
}

// audit is one auditor scan: the pause before it and the work spent on
// each account.
type audit struct {
	pause revoke.Ticks
	work  []revoke.Ticks
}

type transfer struct {
	from, to int
	amount   revoke.Word
	pause    revoke.Ticks
	reversed bool // lock the destination first
}

// bankRun is what one run yields.
type bankRun struct {
	balances, checksums   []revoke.Word
	observations, badObs  int // auditor observations, and those with checksum != 7*balance
	highSpan, overallSpan int64
	sections              []int64
	cpu                   int64
	stats                 revoke.Stats
	ops                   int64
}

func newBankSpec(seed int64, accounts, tellers, auditors, batch, rounds, auditRounds int) *bankSpec {
	rng := rand.New(rand.NewSource(seed))
	s := &bankSpec{accounts: accounts, rounds: rounds, auditors: auditors, auditRounds: auditRounds,
		seed: rng.Int63(), expected: make([]revoke.Word, accounts)}
	for i := range s.expected {
		s.expected[i] = bankInitial
	}
	for ti := 0; ti < tellers; ti++ {
		ts := make([]transfer, rounds)
		for r := range ts {
			from := rng.Intn(accounts)
			to := (from + 1 + rng.Intn(accounts-1)) % accounts
			ts[r] = transfer{from: from, to: to, amount: revoke.Word(rng.Intn(50) + 1),
				pause: revoke.Ticks(rng.Intn(bankQuantum) + 1), reversed: rng.Intn(2) == 1}
			s.expected[from] -= ts[r].amount
			s.expected[to] += ts[r].amount
		}
		s.transfers = append(s.transfers, ts)
	}
	for ai := 0; ai < auditors; ai++ {
		scans := make([]audit, auditRounds)
		for r := range scans {
			scans[r].pause = revoke.Ticks(rng.Intn(2*bankAuditPause) + 1)
			for i := 0; i < accounts; i++ {
				scans[r].work = append(scans[r].work, revoke.Ticks(rng.Intn(bankAuditWork)+1))
			}
		}
		s.audits = append(s.audits, scans)
	}
	for bi := 0; bi < batch; bi++ {
		p := make([]revoke.Ticks, rounds*accounts)
		for i := range p {
			p[i] = revoke.Ticks(rng.Intn(40) + 1)
		}
		s.batchPauses = append(s.batchPauses, p)
	}
	// Interest alternates +1 and -1 by round; an odd round count leaves
	// +1 per account per batch thread.
	for i := range s.expected {
		s.expected[i] += revoke.Word(batch * (rounds % 2))
	}
	return s
}

func setupBank(seed int64, ph phases, counter *eventCounter) (func(*tally), error) {
	spec := newBankSpec(seed, bankAccounts, bankTellers, bankAuditors, bankBatch, bankRounds, bankAuditRounds)
	return func(t *tally) {
		var r bankRun
		t.op("bank run", func() (err error) {
			r, err = runBank(spec, counter)
			return err
		}, func() error { return checkBank(spec, r) })
		t.addStats(r.stats, r.cpu)
		t.ops += r.ops
		t.addRevocationRun(r.highSpan, r.overallSpan, r.sections)
	}, nil
}

func runBank(s *bankSpec, counter *eventCounter) (bankRun, error) {
	rt := revoke.NewRuntime(revoke.Config{
		Mode:              revoke.Revocation,
		Detect:            revoke.DetectOnAcquire,
		TrackDependencies: true,
		DeadlockDetection: true,
		Tracer:            counter.tracer(),
		Sched:             revoke.SchedConfig{Quantum: bankQuantum, Seed: s.seed},
	})
	var r bankRun
	accounts := make([]*revoke.Object, s.accounts)
	monitors := make([]*revoke.Monitor, s.accounts)
	for i := range accounts {
		accounts[i] = rt.Heap().AllocObject(fmt.Sprintf("Account%d", i),
			revoke.FieldSpec{Name: "balance", Init: bankInitial},
			revoke.FieldSpec{Name: "checksum", Init: 7 * bankInitial})
		monitors[i] = rt.MonitorFor(accounts[i])
	}
	read := func(tk *revoke.Task, i, field int) revoke.Word {
		r.ops++
		return tk.ReadField(accounts[i], field)
	}
	write := func(tk *revoke.Task, i, field int, v revoke.Word) {
		r.ops++
		tk.WriteField(accounts[i], field, v)
	}

	for ti, transfers := range s.transfers {
		rt.Spawn(fmt.Sprintf("teller%d", ti), revoke.NormPriority, func(tk *revoke.Task) {
			for _, tr := range transfers {
				tk.Sleep(tr.pause)
				outer, inner := tr.from, tr.to
				if tr.reversed {
					outer, inner = inner, outer
				}
				tk.Synchronized(monitors[outer], func() {
					tk.Work(20)
					tk.Synchronized(monitors[inner], func() {
						fb := read(tk, tr.from, 0)
						write(tk, tr.from, 0, fb-tr.amount)
						write(tk, tr.from, 1, 7*(fb-tr.amount))
						tk.Work(10)
						tb := read(tk, tr.to, 0)
						write(tk, tr.to, 0, tb+tr.amount)
						write(tk, tr.to, 1, 7*(tb+tr.amount))
					})
				})
			}
		})
	}
	for bi, pauses := range s.batchPauses {
		rt.Spawn(fmt.Sprintf("batch%d", bi), revoke.LowPriority, func(tk *revoke.Task) {
			for round := 0; round < s.rounds; round++ {
				delta := revoke.Word(1 - 2*(round%2))
				for i := 0; i < s.accounts; i++ {
					tk.Synchronized(monitors[i], func() {
						// The checksum lags the balance for the whole long
						// section: only atomicity keeps auditors from
						// seeing the gap.
						b := read(tk, i, 0) + delta
						write(tk, i, 0, b)
						tk.Work(bankSectionWork)
						write(tk, i, 1, 7*b)
					})
					tk.Sleep(pauses[round*s.accounts+i])
				}
			}
		})
	}
	var auditors []*revoke.Task
	for ai, scans := range s.audits {
		auditors = append(auditors, rt.Spawn(fmt.Sprintf("auditor%d", ai), revoke.HighPriority, func(tk *revoke.Task) {
			for _, scan := range scans {
				tk.Sleep(scan.pause)
				for i, work := range scan.work {
					requested := rt.Now()
					consistent := false
					tk.Synchronized(monitors[i], func() {
						consistent = read(tk, i, 1) == 7*read(tk, i, 0)
						tk.Work(work)
					})
					r.sections = append(r.sections, int64(rt.Now()-requested))
					r.observations++
					if !consistent {
						r.badObs++
					}
				}
			}
		}))
	}
	if err := rt.Run(); err != nil {
		return r, err
	}
	for _, a := range accounts {
		r.balances = append(r.balances, a.Get(0))
		r.checksums = append(r.checksums, a.Get(1))
	}
	var all []*revoke.Task
	for _, tk := range rt.Tasks() {
		all = append(all, tk)
	}
	r.highSpan, r.overallSpan = span(auditors), span(all)
	r.cpu = threadCPU(rt)
	r.stats = rt.Stats()
	return r, nil
}

// checkBank checks a run against the ledger: every auditor observation saw
// checksum == 7*balance, every scan completed, and at the end every
// account holds exactly the balance the ledger gives it, with a matching
// checksum — so money is conserved.
func checkBank(s *bankSpec, r bankRun) error {
	if r.badObs != 0 {
		return fmt.Errorf("%d of %d auditor observations saw checksum != 7*balance", r.badObs, r.observations)
	}
	if want := s.auditors * s.auditRounds * s.accounts; r.observations != want {
		return fmt.Errorf("%d auditor observations, want %d", r.observations, want)
	}
	return checkLedger(r.balances, r.checksums, s.expected)
}
