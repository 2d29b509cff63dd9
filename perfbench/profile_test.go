package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"repro/internal/core.(*Task).step", "main.runFigCell"}, "core"},
		{[]string{"repro/internal/interp.(*Interp).exec"}, "interp"},
		{[]string{"repro/internal/simtime.(*Clock).Advance"}, "sched"},
		{[]string{"repro/internal/baseline.New"}, "other"},
		{[]string{"fmt.Sprintf", "repro/internal/core.(*Task).enter"}, "trace"},
		{[]string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep"}, "go.sched"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.gcAssistAlloc"}, "go.gc"},
		{[]string{"runtime.mallocgc", "repro/internal/core.(*Task).enter"}, "go"},
		{[]string{"main.(*tally).op"}, "bench"},
		{nil, "other"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

//go:noinline
func burn(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; n++ {
	}
	return n
}

func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	burn(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, bench time.Duration
	for _, s := range samples {
		total += s.cpu
		for _, f := range s.stack {
			if f == "repro/perfbench.burn" {
				bench += s.cpu
				break
			}
		}
	}
	if bench < total/2 || bench < 100*time.Millisecond {
		t.Errorf("profile attributes %v of %v to burn, which ran for 300ms", bench, total)
	}
}
