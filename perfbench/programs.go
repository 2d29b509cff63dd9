package main

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/interp"
	"repro/revoke"
	"repro/rvm"
)

// Generated assembler versions of the micro-benchmark and of the bank.
// Both come from the seed: every random choice the threads make is drawn
// in bytecode from a per-thread linear congruential generator the
// benchmark mirrors in Go, so the expected results are computed apart from
// the VM. High-priority threads time each section from the monitor
// request to the commit with the built-in `now` native and hand the
// latency to the benchmark's `lat` native, outside any section (a native
// inside one would make it non-revocable).

// LCG parameters; products stay below 2^62, so no Word overflows.
const (
	lcgA = 1103515245
	lcgC = 12345
	lcgM = 1 << 31
)

// lcg advances the generator and returns a draw in [0, k), from the high
// bits (the low bits of a power-of-two modulus LCG cycle quickly).
func lcg(x *int64, k int64) int64 {
	*x = (*x*lcgA + lcgC) % lcgM
	return *x / 65536 % k
}

// asm builds assembler source. Each call to emit formats its arguments
// into a ';'-separated list of lines: instructions, labels, `sync N {`
// and `}`.
type asm struct{ strings.Builder }

func (a *asm) emit(format string, args ...any) {
	for _, l := range strings.Split(fmt.Sprintf(format, args...), ";") {
		a.WriteString(strings.TrimSpace(l))
		a.WriteByte('\n')
	}
}

// draw emits the bytecode form of lcg: local 0 holds the state, and the
// draw is left on the stack.
func (a *asm) draw(k int64) {
	a.emit("load 0; const %d; mul; const %d; add; const %d; mod; dup; store 0; const 65536; div; const %d; mod",
		lcgA, lcgC, lcgM, k)
}

// spin emits the wait for the init thread to publish a volatile static.
func (a *asm) spin(static string) {
	a.emit("spin:; getstatic %s; ifz spin", static)
}

// program is a generated program with its expected results.
type program struct {
	name    string
	src     string
	quantum revoke.Ticks
	seed    int64 // scheduler seed
	// check validates a finished run's heap against the results computed
	// apart from the VM.
	check func(e *rvm.Env) error

	prog  *rvm.Program
	facts *rvm.Facts
}

// microProgram is the §4.1 micro-benchmark: high and low threads run
// sections on one lock over a shared buffer, each section bumping a
// counter once.
func microProgram(rng *rand.Rand, high, low, sections, highIters, lowIters int) *program {
	const bufLen, writeEvery = 256, 3
	quantum := revoke.Ticks(10 * lowIters) // sections span ~1.5 quanta
	var a asm
	a.emit("static lockRef volatile = 0; static bufRef volatile = 0; static count = 0")
	a.emit("class Lock {; unused; }")
	a.emit("thread init priority 9 run setup")
	kinds := make([]string, high+low)
	for i := range kinds {
		prio, kind := 8, "high"
		if i >= high {
			prio, kind = 2, "low"
		}
		kinds[i] = kind
		a.emit("thread %s%d priority %d run %s%d", kind, i, prio, kind, i)
	}
	a.emit("method setup locals 0 {; const %d; newarr; putstatic bufRef; newobj Lock; putstatic lockRef; return; }", bufLen)
	for i, kind := range kinds {
		a.emit("method %s%d locals 0 {; const %d; invoke %sBody; return; }", kind, i, rng.Int63n(lcgM), kind)
	}
	for _, kind := range []string{"high", "low"} {
		iters := lowIters
		if kind == "high" {
			iters = highIters
		}
		// Locals: 0 generator, 1 lock, 2 buffer, 3 sections left,
		// 4 request time, 5 loop index.
		a.emit("method %sBody args 1 locals 6 {", kind)
		a.spin("lockRef")
		a.emit("getstatic lockRef; store 1; getstatic bufRef; store 2; const %d; store 3", sections)
		a.emit("next:; load 3; ifz done")
		a.draw(int64(2 * quantum))
		a.emit("sleep")
		if kind == "high" {
			a.emit("native now 0; store 4")
		}
		a.emit("sync 1 {; getstatic count; const 1; add; putstatic count; const 0; store 5")
		a.emit("loop:; load 5; const %d; cmplt; ifz end; load 5; const %d; mod; ifz write", iters, writeEvery)
		a.emit("load 2; load 5; const %d; mod; aload; pop; goto step", bufLen)
		a.emit("write:; load 2; load 5; const %d; mod; load 5; astore", bufLen)
		a.emit("step:; load 5; const 1; add; store 5; goto loop")
		a.emit("end:; }")
		if kind == "high" {
			a.emit("native now 0; load 4; sub; native lat 1; pop")
		}
		a.emit("load 3; const 1; sub; store 3; goto next")
		a.emit("done:; return; }")
	}
	want := revoke.Word((high + low) * sections)
	return &program{
		name:    "micro",
		src:     a.String(),
		quantum: quantum,
		seed:    rng.Int63(),
		check: func(e *rvm.Env) error {
			h := e.RT.Heap()
			i, ok := h.StaticIndex("count")
			if !ok {
				return fmt.Errorf("micro: no static count")
			}
			if got := h.GetStatic(i); got != want {
				return fmt.Errorf("micro: counter %d after the run, %d sections scheduled", got, want)
			}
			return nil
		},
	}
}

// bankProgram is the bank in assembler: tellers move money between
// accounts they lock in random order, batch threads post interest in long
// sections, and each auditor counts the observations where an account's
// checksum is not 7 times its balance into a static only it touches.
func bankProgram(rng *rand.Rand, accounts, tellers, auditors, batch, rounds, auditRounds int) *program {
	const (
		initial     = 1000
		sectionWork = 600
		pause       = 400
		// Auditors spend up to auditWork ticks on each account and pause
		// auditPause ticks on average between scans.
		auditWork  = 500
		auditPause = 5000
	)
	expected := make([]revoke.Word, accounts)
	for i := range expected {
		// Interest alternates +1 and -1 by round.
		expected[i] = initial + revoke.Word(batch*(rounds%2))
	}
	var a asm
	a.emit("static accts volatile = 0")
	for k := 0; k < auditors; k++ {
		a.emit("static bad%d = 0", k)
	}
	a.emit("class Account {; balance = %d; checksum = %d; }", initial, 7*initial)
	a.emit("thread init priority 9 run setup")
	for i := 0; i < tellers; i++ {
		a.emit("thread teller%d priority 5 run teller%d", i, i)
	}
	for i := 0; i < auditors; i++ {
		a.emit("thread auditor%d priority 8 run auditor%d", i, i)
	}
	for i := 0; i < batch; i++ {
		a.emit("thread batch%d priority 2 run batch%d", i, i)
	}
	a.emit("method setup locals 2 {; const %d; newarr; store 0; const 0; store 1", accounts)
	a.emit("fill:; load 1; const %d; cmplt; ifz filled", accounts)
	a.emit("load 0; load 1; newobj Account; astore; load 1; const 1; add; store 1; goto fill")
	a.emit("filled:; load 0; putstatic accts; return; }")

	for i := 0; i < tellers; i++ {
		seed := rng.Int63n(lcgM)
		a.emit("method teller%d locals 0 {; const %d; invoke tellerBody; return; }", i, seed)
		// Mirror the teller's draws to build the ledger.
		x := seed
		for r := 0; r < rounds; r++ {
			from := lcg(&x, int64(accounts))
			to := (from + 1 + lcg(&x, int64(accounts-1))) % int64(accounts)
			amount := revoke.Word(lcg(&x, 50) + 1)
			lcg(&x, pause) // the pause
			lcg(&x, 2)     // the lock order
			expected[from] -= amount
			expected[to] += amount
		}
	}
	for i := 0; i < batch; i++ {
		a.emit("method batch%d locals 0 {; const %d; invoke batchBody; return; }", i, rng.Int63n(lcgM))
	}

	// Teller locals: 0 generator, 1 rounds left, 2 accounts, 3 from, 4 to,
	// 5 amount, 6 first-locked account, 7 second-locked account, 8 scratch.
	a.emit("method tellerBody args 1 locals 9 {")
	a.spin("accts")
	a.emit("getstatic accts; store 2; const %d; store 1", rounds)
	a.emit("next:; load 1; ifz done")
	a.draw(int64(accounts))
	a.emit("store 3")
	a.draw(int64(accounts - 1))
	a.emit("const 1; add; load 3; add; const %d; mod; store 4", accounts)
	a.draw(50)
	a.emit("const 1; add; store 5")
	a.draw(pause)
	a.emit("const 1; add; sleep")
	a.draw(2)
	a.emit("ifz forward; load 2; load 4; aload; store 6; load 2; load 3; aload; store 7; goto locked")
	a.emit("forward:; load 2; load 3; aload; store 6; load 2; load 4; aload; store 7")
	a.emit("locked:; sync 6 {; const 20; work; sync 7 {")
	a.emit("load 2; load 3; aload; store 8")
	a.emit("load 8; load 8; getfield Account.balance; load 5; sub; putfield Account.balance")
	a.emit("load 8; load 8; getfield Account.balance; const 7; mul; putfield Account.checksum")
	a.emit("const 10; work")
	a.emit("load 2; load 4; aload; store 8")
	a.emit("load 8; load 8; getfield Account.balance; load 5; add; putfield Account.balance")
	a.emit("load 8; load 8; getfield Account.balance; const 7; mul; putfield Account.checksum")
	a.emit("}; }; load 1; const 1; sub; store 1; goto next")
	a.emit("done:; return; }")

	// Batch locals: 0 generator, 1 round, 2 accounts, 3 index, 4 account,
	// 5 new balance. The checksum lags the balance for the whole long
	// section: only atomicity keeps auditors from seeing the gap.
	a.emit("method batchBody args 1 locals 6 {")
	a.spin("accts")
	a.emit("getstatic accts; store 2; const 0; store 1")
	a.emit("next:; load 1; const %d; cmplt; ifz done; const 0; store 3", rounds)
	a.emit("acct:; load 3; const %d; cmplt; ifz acctdone; load 2; load 3; aload; store 4", accounts)
	a.emit("sync 4 {; load 4; getfield Account.balance; const 1; load 1; const 2; mod; const 2; mul; sub; add; store 5")
	a.emit("load 4; load 5; putfield Account.balance; const %d; work", sectionWork)
	a.emit("load 4; load 5; const 7; mul; putfield Account.checksum; }")
	a.draw(40)
	a.emit("const 1; add; sleep; load 3; const 1; add; store 3; goto acct")
	a.emit("acctdone:; load 1; const 1; add; store 1; goto next")
	a.emit("done:; return; }")

	// Auditor locals: 0 generator, 1 scans left, 2 accounts, 3 index,
	// 4 request time, 5 checksum - 7*balance, 6 account, 7 work.
	for k := 0; k < auditors; k++ {
		a.emit("method auditor%d locals 8 {; const %d; store 0", k, rng.Int63n(lcgM))
		a.spin("accts")
		a.emit("getstatic accts; store 2; const %d; store 1", auditRounds)
		a.emit("next:; load 1; ifz done")
		a.draw(2 * auditPause)
		a.emit("const 1; add; sleep; const 0; store 3")
		a.emit("scan:; load 3; const %d; cmplt; ifz scanned; load 2; load 3; aload; store 6", accounts)
		a.draw(auditWork)
		a.emit("const 1; add; store 7")
		a.emit("native now 0; store 4")
		a.emit("sync 6 {; load 6; getfield Account.checksum; load 6; getfield Account.balance; const 7; mul; sub; store 5")
		a.emit("load 7; work; }")
		a.emit("native now 0; load 4; sub; native lat 1; pop")
		a.emit("load 5; ifz ok; getstatic bad%d; const 1; add; putstatic bad%d", k, k)
		a.emit("ok:; load 3; const 1; add; store 3; goto scan")
		a.emit("scanned:; load 1; const 1; sub; store 1; goto next")
		a.emit("done:; getstatic bad%d; native print 1; pop; return; }", k)
	}

	return &program{
		name:    "bank",
		src:     a.String(),
		quantum: 1000,
		seed:    rng.Int63(),
		check: func(e *rvm.Env) error {
			h := e.RT.Heap()
			for k := 0; k < auditors; k++ {
				i, ok := h.StaticIndex(fmt.Sprintf("bad%d", k))
				if !ok {
					return fmt.Errorf("bank: no static bad%d", k)
				}
				if n := h.GetStatic(i); n != 0 {
					return fmt.Errorf("bank: auditor %d saw checksum != 7*balance %d times", k, n)
				}
			}
			i, _ := h.StaticIndex("accts")
			arr, ok := e.Array(h.GetStatic(i))
			if !ok || arr.Len() != accounts {
				return fmt.Errorf("bank: accounts array not published")
			}
			balances := make([]revoke.Word, accounts)
			checksums := make([]revoke.Word, accounts)
			for j := range balances {
				o, ok := e.Object(arr.Get(j))
				if !ok {
					return fmt.Errorf("bank: account %d missing", j)
				}
				balances[j], checksums[j] = o.Get(0), o.Get(1)
			}
			return checkLedger(balances, checksums, expected)
		},
	}
}

// checkLedger checks final balances against the ledger: every checksum is
// 7 times its balance, the total is conserved, and every account holds
// exactly what the ledger gives it.
func checkLedger(balances, checksums, expected []revoke.Word) error {
	if len(balances) != len(expected) {
		return fmt.Errorf("%d final balances, want %d", len(balances), len(expected))
	}
	var total, want revoke.Word
	for i, b := range balances {
		total += b
		want += expected[i]
		if checksums[i] != 7*b {
			return fmt.Errorf("account %d ends with checksum %d, want 7*%d", i, checksums[i], b)
		}
	}
	if total != want {
		return fmt.Errorf("money not conserved: accounts hold %d, ledger %d", total, want)
	}
	for i, b := range balances {
		if b != expected[i] {
			return fmt.Errorf("account %d ends at %d, ledger gives %d", i, b, expected[i])
		}
	}
	return nil
}

// load takes a program through the rvmrun -static path, timing each phase:
// assemble, verify, rewrite, analyse, elide, and certify (the
// certificate check NewEnv repeats as its load-time gate).
func (p *program) load(ph phases) error {
	steps := []struct {
		phase string
		f     func() error
	}{
		{"bytecode.assemble_s", func() (err error) { p.prog, err = rvm.Assemble(p.src); return err }},
		{"bytecode.verify_s", func() error { return rvm.Verify(p.prog) }},
		{"rewrite.rewrite_s", func() (err error) { p.prog, err = rvm.Rewrite(p.prog); return err }},
		{"analysis.analyze_s", func() (err error) { p.facts, err = rvm.Analyze(p.prog); return err }},
		{"rewrite.elide_s", func() error {
			ph.count["rewrite.stores_elided"] += float64(rvm.ApplyStaticElision(p.prog, p.facts))
			return nil
		}},
		{"analysis.certify_s", func() error { return p.facts.VerifyCertificates() }},
	}
	for _, s := range steps {
		if err := ph.timed(s.phase, s.f); err != nil {
			return fmt.Errorf("%s: %s: %w", p.name, strings.TrimSuffix(s.phase, "_s"), err)
		}
	}
	for _, m := range p.prog.Methods {
		ph.count["bytecode.instructions"] += float64(len(m.Code))
	}
	ph.count["analysis.certificates"] += float64(len(p.facts.Certs))
	return nil
}

// progRun is one run of a program and what it yields.
type progRun struct {
	rt                    *revoke.Runtime
	env                   *rvm.Env
	clock                 int64
	stats                 revoke.Stats
	printed               []revoke.Word
	sections              []int64
	highSpan, overallSpan int64
	cpu                   int64
}

// newProgramRun prepares a run of p on tier over a fresh revocation
// runtime built from cfg: the environment (which re-checks the
// certificates) and the benchmark's `lat` native.
func newProgramRun(p *program, tier interp.Tier, cfg revoke.Config) (*progRun, error) {
	cfg.Mode = revoke.Revocation
	cfg.TrackDependencies = true
	cfg.DeadlockDetection = true
	cfg.Sched = revoke.SchedConfig{Quantum: p.quantum, Seed: p.seed}
	r := &progRun{rt: revoke.NewRuntime(cfg)}
	var err error
	if r.env, err = rvm.NewEnv(r.rt, p.prog, rvm.Options{Rewritten: true, Tier: tier, Facts: p.facts}); err != nil {
		return nil, err
	}
	r.env.RegisterNative("lat", func(_ *rvm.Env, _ *revoke.Task, args []revoke.Word) revoke.Word {
		r.sections = append(r.sections, int64(args[0]))
		return args[0]
	})
	return r, nil
}

// run spawns the program's threads, runs them to the end, and collects
// the results.
func (r *progRun) run() error {
	if err := r.env.SpawnDeclaredThreads(); err != nil {
		return err
	}
	if err := r.rt.Run(); err != nil {
		return err
	}
	var high, all []*revoke.Task
	for _, tk := range r.rt.Tasks() {
		all = append(all, tk)
		if tk.Thread().BasePriority() == revoke.HighPriority {
			high = append(high, tk)
		}
	}
	r.clock = int64(r.rt.Now())
	r.stats = r.rt.Stats()
	r.printed = r.env.Printed
	r.highSpan, r.overallSpan = span(high), span(all)
	r.cpu = threadCPU(r.rt)
	return nil
}

// checkTiers checks that two tiers ran a program identically: the same
// clock, counters, heap, printed output and section latencies.
func checkTiers(a, b *progRun) error {
	switch {
	case a.clock != b.clock:
		return fmt.Errorf("clock %d vs %d", a.clock, b.clock)
	case a.stats != b.stats:
		return fmt.Errorf("stats differ:\n  %+v\n  %+v", a.stats, b.stats)
	case !a.rt.Heap().Snapshot().Equal(b.rt.Heap().Snapshot()):
		return fmt.Errorf("heaps differ: %s", a.rt.Heap().Snapshot().Diff(b.rt.Heap().Snapshot()))
	case !slices.Equal(a.printed, b.printed):
		return fmt.Errorf("printed %v vs %v", a.printed, b.printed)
	case !slices.Equal(a.sections, b.sections):
		return fmt.Errorf("section latencies differ")
	}
	return nil
}

// Program sizes: each round holds at least 1000 high-priority sections on
// both workloads that run these programs.
const (
	microHigh, microLow, microSections = 2, 4, 40
	microHighIters, microLowIters      = 200, 1000
	progAccounts, progTellers          = 16, 8
	progAuditors, progBatch            = 2, 2
	progRounds, progAuditRounds        = 40, 400
)

// loadPrograms generates and loads both programs from seed.
func loadPrograms(seed int64, ph phases) ([]*program, error) {
	rng := rand.New(rand.NewSource(seed))
	progs := []*program{
		microProgram(rng, microHigh, microLow, microSections, microHighIters, microLowIters),
		bankProgram(rng, progAccounts, progTellers, progAuditors, progBatch, progRounds, progAuditRounds),
	}
	for _, p := range progs {
		if err := p.load(ph); err != nil {
			return nil, err
		}
	}
	return progs, nil
}

// setupBytecode: the programs on the paper's two tiers, exec and threaded.
// The opt tier is left out: it is slated to fold into threaded.
func setupBytecode(seed int64, ph phases, counter *eventCounter) (func(*tally), error) {
	progs, err := loadPrograms(seed, ph)
	if err != nil {
		return nil, err
	}
	tiers := []struct {
		tier  interp.Tier
		phase string
	}{{interp.TierExec, "interp.exec.run_s"}, {interp.TierThreaded, "interp.threaded.run_s"}}
	return func(t *tally) {
		for _, p := range progs {
			var runs []*progRun
			for _, tr := range tiers {
				var r *progRun
				start := t.wall
				ok := t.op(p.name+" on "+tr.tier.String(), func() (err error) {
					if r, err = newProgramRun(p, tr.tier, revoke.Config{Tracer: counter.tracer()}); err != nil {
						return err
					}
					return r.run()
				}, func() error { return p.check(r.env) })
				t.d[tr.phase] += t.wall - start
				if r == nil {
					continue
				}
				t.addStats(r.stats, r.cpu)
				t.addRevocationRun(r.highSpan, r.overallSpan, r.sections)
				if ok {
					runs = append(runs, r)
				}
			}
			if len(runs) == 2 {
				if err := checkTiers(runs[0], runs[1]); err != nil {
					t.problem("%s: exec and threaded disagree: %v", p.name, err)
				}
			}
		}
	}, nil
}
