package main

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/race"
	"repro/internal/rewrite"
	"repro/internal/sched"
)

// volatilePublish fills an array and publishes it through a volatile static
// outside any section. Each reader spins on the static, then reads and
// rewrites its own element; the volatile write/read pair orders the fills
// before both. The two readers writing array elements keep array:elem out
// of the race-free certificates, so the sanitizer checks every access.
const volatilePublish = `
static arr volatile = 0

thread W priority 5 run setup
thread R1 priority 5 run reader1
thread R2 priority 5 run reader2

method setup locals 2 {
    const 4
    newarr
    store 0
    const 0
    store 1
  fill:
    load 1
    const 4
    cmplt
    ifz filled
    load 0
    load 1
    load 1
    astore
    load 1
    const 1
    add
    store 1
    goto fill
  filled:
    load 0
    putstatic arr
    return
}

method reader1 locals 0 {
    const 1
    invoke bump
    return
}

method reader2 locals 0 {
    const 2
    invoke bump
    return
}

method bump args 1 locals 2 {
  spin:
    getstatic arr
    ifz spin
    getstatic arr
    store 1
    load 1
    load 0
    load 1
    load 0
    aload
    const 10
    add
    astore
    return
}
`

// TestStaticVolatilePublishIsRaceFree runs the -static -race pipeline over
// volatilePublish: the publishing putstatic keeps its barrier (no
// elide-barrier certificate), so the volatile release survives elision and
// the sanitizer reports nothing.
func TestStaticVolatilePublishIsRaceFree(t *testing.T) {
	prog, err := bytecode.Assemble(volatilePublish)
	if err != nil {
		t.Fatal(err)
	}
	if err := bytecode.Verify(prog); err != nil {
		t.Fatal(err)
	}
	if prog, err = rewrite.Rewrite(prog); err != nil {
		t.Fatal(err)
	}
	facts, err := analysis.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	setup, _ := prog.Method("setup")
	for pc, in := range setup.Code {
		if in.Op == bytecode.PUTSTATIC && facts.CertAt("setup", pc, analysis.CertElideBarrier) != nil {
			t.Fatalf("volatile publish at setup@%d certified for barrier elision", pc)
		}
	}
	rewrite.ApplyStaticElision(prog, facts)

	detector := race.New()
	detector.SetCertifiedRaceFree(facts.RaceFreeSlotNames())
	rt := core.New(core.Config{
		Mode:              core.Revocation,
		TrackDependencies: true,
		DeadlockDetection: true,
		Race:              detector,
		Sched:             sched.Config{Quantum: 1000},
	})
	if _, err := interp.Run(rt, prog, interp.Options{Rewritten: true, Facts: facts}); err != nil {
		t.Fatal(err)
	}
	if reports := detector.Finalize(); len(reports) != 0 {
		t.Fatalf("volatile publication reported as racy:\n%s", race.RenderReports(reports))
	}
}
