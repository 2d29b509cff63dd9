// Package bench implements the paper's micro-benchmark (§4.1) and the
// harness that regenerates every figure of the evaluation (§4.2).
//
// The benchmark: several low- and high-priority threads contend on one
// lock. Every thread executes a fixed number of synchronized sections; each
// section is an inner loop of interleaved shared reads and writes over a
// buffer, so section execution time is directly proportional to the number
// of shared-data operations. A random pause averaging one scheduler quantum
// precedes each section, randomizing arrival order. Low-priority threads
// run a long inner loop (paper: 500K iterations); high-priority threads run
// a shorter or equal loop (100K / 500K). Thread mixes are 2+8, 5+5 and 8+2
// (high+low); the write ratio sweeps 0..100 %.
//
// Each cell runs twice — on the modified VM (revocation) and on the
// unmodified VM — and reports the total elapsed virtual time of the
// high-priority threads (earliest start to latest finish, Figures 5-6) and
// of all threads (Figures 7-8), normalized per panel to the unmodified VM
// at 100 % reads.
package bench

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/prof"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// VM selects which virtual machine executes a cell.
type VM int

const (
	// Unmodified is the reference VM (no barriers, no revocation).
	Unmodified VM = iota
	// Modified is the revocation-enabled VM.
	Modified
)

func (v VM) String() string {
	if v == Modified {
		return "MODIFIED"
	}
	return "UNMODIFIED"
}

// Params describes one benchmark cell.
type Params struct {
	HighThreads int
	LowThreads  int
	// Sections is the number of synchronized sections per thread (paper:
	// 100).
	Sections int
	// HighIters / LowIters are the inner-loop lengths (paper: 100K or
	// 500K for high, 500K for low).
	HighIters int
	LowIters  int
	// WritePct is the percentage of inner-loop operations that are writes
	// (0..100).
	WritePct int
	// BufferLen is the shared array the loop walks cyclically.
	BufferLen int
	// Quantum is the scheduler quantum in ticks; the pre-section pause is
	// uniform in [0, 2*PauseMult*Quantum), averaging PauseMult quanta
	// (paper: one quantum → PauseMult 1, the default).
	Quantum   simtime.Ticks
	PauseMult int
	Seed      int64

	// Cost model (ticks). Zero values select the defaults documented in
	// DefaultCosts.
	CostRead, CostWrite, CostLogEntry, CostUndoEntry simtime.Ticks

	// TrackDeps enables §2.2 dependency tracking on the modified VM. The
	// benchmark guards all data with one monitor, so tracking never fires;
	// it is on by default to charge its bookkeeping honestly.
	TrackDeps bool
}

// DefaultCosts fills zero cost fields: a shared-data operation costs 4
// ticks; taking the write-barrier slow path (logging one update) adds 1
// tick (+25 % on a write — a few extra instructions next to a heap store,
// matching the paper's observation that log maintenance is cheap relative
// to the operations themselves); restoring one location during rollback
// costs 1 tick.
func (p *Params) DefaultCosts() {
	if p.CostRead == 0 {
		p.CostRead = 4
	}
	if p.CostWrite == 0 {
		p.CostWrite = 4
	}
	if p.CostLogEntry == 0 {
		p.CostLogEntry = 1
	}
	if p.CostUndoEntry == 0 {
		p.CostUndoEntry = 1
	}
	if p.BufferLen == 0 {
		p.BufferLen = 256
	}
	if p.Quantum == 0 {
		p.Quantum = 1000
	}
	if p.PauseMult == 0 {
		p.PauseMult = 1
	}
}

// CellResult reports one (VM, Params) execution.
type CellResult struct {
	VM     VM
	Params Params
	// HighSpan is the total elapsed time of high-priority threads: from
	// the earliest high start to the latest high finish (§4.1).
	HighSpan simtime.Ticks
	// OverallSpan is the same measure over all threads.
	OverallSpan simtime.Ticks
	Stats       core.Stats
}

// RunCell executes one benchmark cell deterministically.
func RunCell(vm VM, p Params) (CellResult, error) {
	return runCell(vm, p, nil, nil)
}

// runCell is RunCell with an optional event sink (Config.Observer) and
// virtual-time profiler attached; neither perturbs virtual time.
func runCell(vm VM, p Params, observer trace.Sink, profiler *prof.Profiler) (CellResult, error) {
	p.DefaultCosts()
	mode := core.Unmodified
	if vm == Modified {
		mode = core.Revocation
	}
	rt := core.New(core.Config{
		Mode:              mode,
		TrackDependencies: vm == Modified && p.TrackDeps,
		CostRead:          p.CostRead,
		CostWrite:         p.CostWrite,
		CostLogEntry:      p.CostLogEntry,
		CostUndoEntry:     p.CostUndoEntry,
		Observer:          observer,
		Profiler:          profiler,
		Sched:             sched.Config{Quantum: p.Quantum, Seed: p.Seed},
	})
	buf := rt.Heap().AllocArray(p.BufferLen)
	mon := rt.NewMonitor("shared")

	type span struct{ task *core.Task }
	var high, all []span

	spawn := func(name string, prio sched.Priority, iters int, seed int64) *core.Task {
		rng := rand.New(rand.NewSource(seed))
		return rt.Spawn(name, prio, func(tk *core.Task) {
			for s := 0; s < p.Sections; s++ {
				// Random arrival: a pause averaging PauseMult quanta
				// (§4.1: "a short random pause time (on average equal to
				// a single thread quantum) right before an entry to the
				// synchronized section, to ensure random arrival").
				tk.Sleep(simtime.Ticks(rng.Int63n(int64(2*p.Quantum)*int64(p.PauseMult) + 1)))
				tk.Synchronized(mon, func() {
					runInnerLoop(tk, buf, iters, p.WritePct, p.BufferLen)
				})
			}
		})
	}

	for i := 0; i < p.HighThreads; i++ {
		t := spawn(fmt.Sprintf("high%d", i), sched.HighPriority, p.HighIters, p.Seed+int64(i)*7919+1)
		high = append(high, span{t})
		all = append(all, span{t})
	}
	for i := 0; i < p.LowThreads; i++ {
		t := spawn(fmt.Sprintf("low%d", i), sched.LowPriority, p.LowIters, p.Seed+int64(i)*104729+2)
		all = append(all, span{t})
	}
	if err := rt.Run(); err != nil {
		return CellResult{}, err
	}

	measure := func(ss []span) simtime.Ticks {
		if len(ss) == 0 {
			return 0
		}
		start := ss[0].task.Thread().StartedAt()
		end := ss[0].task.Thread().EndedAt()
		for _, s := range ss[1:] {
			if st := s.task.Thread().StartedAt(); st < start {
				start = st
			}
			if en := s.task.Thread().EndedAt(); en > end {
				end = en
			}
		}
		return end - start
	}
	return CellResult{
		VM:          vm,
		Params:      p,
		HighSpan:    measure(high),
		OverallSpan: measure(all),
		Stats:       rt.Stats(),
	}, nil
}

// runInnerLoop executes iters interleaved read/write operations with
// exactly writePct percent writes, spread evenly (the paper interleaves
// reads and writes rather than batching them).
func runInnerLoop(tk *core.Task, buf *heap.Array, iters, writePct, bufLen int) {
	writesSoFar := 0
	for i := 0; i < iters; i++ {
		idx := i % bufLen
		// Even interleaving: after i+1 ops, writes ≈ (i+1)*writePct/100.
		if (i+1)*writePct/100 > writesSoFar {
			tk.WriteElem(buf, idx, heap.Word(i))
			writesSoFar++
		} else {
			tk.ReadElem(buf, idx)
		}
	}
}

// ---------------------------------------------------------------------------
// Figure harness.

// Mix is a thread-count configuration.
type Mix struct {
	High, Low int
}

func (m Mix) String() string { return fmt.Sprintf("%d high + %d low", m.High, m.Low) }

// Mixes are the paper's three configurations, in panel order (a), (b), (c).
var Mixes = []Mix{{2, 8}, {5, 5}, {8, 2}}

// WriteRatios is the paper's x-axis: percent of writes.
var WriteRatios = []int{0, 20, 40, 60, 80, 100}

// Scale selects how large a run is. Shapes are scale-invariant; paper scale
// exists for fidelity, the smaller scales for CI and quick sweeps.
type Scale int

const (
	// ScaleSmall: seconds per figure. Used by tests and testing.B benches.
	ScaleSmall Scale = iota
	// ScaleMedium: tens of seconds per figure. cmd/figures default.
	ScaleMedium
	// ScalePaper: the paper's parameters (100 sections, 500K-iteration
	// low-priority loops). Minutes per figure.
	ScalePaper
)

func (s Scale) String() string {
	switch s {
	case ScaleSmall:
		return "small"
	case ScaleMedium:
		return "medium"
	case ScalePaper:
		return "paper"
	default:
		return "scale(?)"
	}
}

// ParseScale converts a flag string to a Scale.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "small":
		return ScaleSmall, nil
	case "medium":
		return ScaleMedium, nil
	case "paper":
		return ScalePaper, nil
	default:
		return 0, fmt.Errorf("bench: unknown scale %q (want small, medium or paper)", s)
	}
}

// base returns the scale's parameter template. shortHigh selects the 100K
// (Figures 5/7) vs 500K (Figures 6/8) high-priority loop; at other scales
// the 1:5 ratio between the two variants is preserved.
func (s Scale) base(shortHigh bool) Params {
	// The paper's geometry: a low-priority section (500K operations, with
	// the barrier-bearing loop body) spans a small number of Jikes RVM
	// scheduling quanta of CPU, and the random pause averages one quantum.
	// Each scale preserves section:quantum = 3:2 — the ratio the
	// contention dynamics depend on — so shapes are scale-invariant. (A
	// calibration sweep over ratios 0.5..3 reproduces the paper's panel
	// shapes best at 1.5; see EXPERIMENTS.md.)
	var p Params
	switch s {
	case ScaleSmall:
		p = Params{Sections: 20, LowIters: 1500, HighIters: 1500, BufferLen: 256}
	case ScaleMedium:
		p = Params{Sections: 50, LowIters: 15000, HighIters: 15000, BufferLen: 1024}
	case ScalePaper:
		p = Params{Sections: 100, LowIters: 500000, HighIters: 500000, BufferLen: 4096}
	}
	p.CostRead = 4
	p.CostWrite = 4
	p.Quantum = simtime.Ticks(int(p.CostRead) * p.LowIters * 2 / 3)
	if shortHigh {
		p.HighIters = p.LowIters / 5 // the paper's 100K vs 500K ratio
	}
	p.TrackDeps = true
	p.Seed = 20040815 // ICPP 2004 — any fixed seed keeps runs reproducible
	return p
}

// CellParams builds the parameters for one cell of a figure: the scale's
// template specialized to a thread mix and write ratio. Exposed for
// single-cell runs (cmd/figures -cell) and external harnesses.
func CellParams(s Scale, shortHigh bool, mix Mix, writePct int) Params {
	p := s.base(shortHigh)
	p.HighThreads = mix.High
	p.LowThreads = mix.Low
	p.WritePct = writePct
	return p
}

// Metric selects what a figure measures.
type Metric int

const (
	// HighPriorityTime is the total elapsed time of high-priority threads
	// (Figures 5 and 6).
	HighPriorityTime Metric = iota
	// OverallTime is the total elapsed time of the whole benchmark
	// (Figures 7 and 8).
	OverallTime
)

func (m Metric) String() string {
	if m == OverallTime {
		return "overall elapsed time"
	}
	return "elapsed time of high-priority threads"
}

// Point is one x-position of a panel.
type Point struct {
	WritePct   int
	Modified   float64 // normalized
	Unmodified float64 // normalized
	RawMod     simtime.Ticks
	RawUnmod   simtime.Ticks
	ModStats   core.Stats
}

// Panel is one thread-mix sub-graph of a figure.
type Panel struct {
	Mix    Mix
	Points []Point
}

// Figure is a complete reproduction of one paper figure.
type Figure struct {
	Number    int
	Metric    Metric
	ShortHigh bool // true: high threads run the 100K-equivalent loop
	Scale     Scale
	Panels    []Panel
}

// FigureSpec describes the paper's four evaluation figures.
type FigureSpec struct {
	Number    int
	Metric    Metric
	ShortHigh bool
	Caption   string
}

// Specs indexes the paper's figures by number.
var Specs = map[int]FigureSpec{
	5: {5, HighPriorityTime, true, "Total time for high-priority threads, 100K iterations"},
	6: {6, HighPriorityTime, false, "Total time for high-priority threads, 500K iterations"},
	7: {7, OverallTime, true, "Overall time, 100K iterations"},
	8: {8, OverallTime, false, "Overall time, 500K iterations"},
}

// Progress receives completion callbacks during a figure run; may be nil.
type Progress func(mix Mix, writePct int, vm VM, res CellResult)

// RunFigure regenerates a paper figure at the given scale.
func RunFigure(number int, scale Scale, progress Progress) (Figure, error) {
	spec, ok := Specs[number]
	if !ok {
		return Figure{}, fmt.Errorf("bench: no figure %d in the paper (have 5-8)", number)
	}
	fig := Figure{Number: number, Metric: spec.Metric, ShortHigh: spec.ShortHigh, Scale: scale}
	for _, mix := range Mixes {
		panel := Panel{Mix: mix}
		var norm simtime.Ticks // unmodified @ 0% writes
		for _, wp := range WriteRatios {
			p := CellParams(scale, spec.ShortHigh, mix, wp)

			un, err := RunCell(Unmodified, p)
			if err != nil {
				return Figure{}, fmt.Errorf("bench: unmodified cell %v/%d%%: %w", mix, wp, err)
			}
			if progress != nil {
				progress(mix, wp, Unmodified, un)
			}
			mo, err := RunCell(Modified, p)
			if err != nil {
				return Figure{}, fmt.Errorf("bench: modified cell %v/%d%%: %w", mix, wp, err)
			}
			if progress != nil {
				progress(mix, wp, Modified, mo)
			}

			pick := func(r CellResult) simtime.Ticks {
				if spec.Metric == OverallTime {
					return r.OverallSpan
				}
				return r.HighSpan
			}
			if wp == 0 {
				norm = pick(un)
			}
			panel.Points = append(panel.Points, Point{
				WritePct:   wp,
				Modified:   float64(pick(mo)) / float64(norm),
				Unmodified: float64(pick(un)) / float64(norm),
				RawMod:     pick(mo),
				RawUnmod:   pick(un),
				ModStats:   mo.Stats,
			})
		}
		fig.Panels = append(fig.Panels, panel)
	}
	return fig, nil
}

// Summary condenses a set of figures into the paper's headline claims.
type Summary struct {
	// GainPct is the average high-priority elapsed-time gain of the
	// modified VM across all Figure 5+6 cells: (un-mod)/un * 100.
	GainPct float64
	// GainPctFavorable excludes the 8+2 mix, matching the paper's "if we
	// discard the configuration where there are eight high-priority
	// threads" claim.
	GainPctFavorable float64
	// SpeedupFavorable is the mean un/mod ratio over the favorable mixes
	// (paper: "twice as fast").
	SpeedupFavorable float64
	// OverallOverheadPct is the average overall elapsed-time increase of
	// the modified VM across all Figure 7+8 cells (paper: ≈30 %).
	OverallOverheadPct float64
}

// Summarize computes the headline numbers from reproduced figures. highFigs
// are Figures 5/6-style (high-priority metric), overallFigs 7/8-style.
func Summarize(highFigs, overallFigs []Figure) Summary {
	var sum Summary
	var gainAll, gainFav, speedFav []float64
	for _, f := range highFigs {
		for _, panel := range f.Panels {
			fav := !(panel.Mix.High > panel.Mix.Low)
			for _, pt := range panel.Points {
				gain := (float64(pt.RawUnmod) - float64(pt.RawMod)) / float64(pt.RawUnmod) * 100
				gainAll = append(gainAll, gain)
				if fav {
					gainFav = append(gainFav, gain)
					speedFav = append(speedFav, float64(pt.RawUnmod)/float64(pt.RawMod))
				}
			}
		}
	}
	var over []float64
	for _, f := range overallFigs {
		for _, panel := range f.Panels {
			for _, pt := range panel.Points {
				over = append(over, (float64(pt.RawMod)-float64(pt.RawUnmod))/float64(pt.RawUnmod)*100)
			}
		}
	}
	sum.GainPct = mean(gainAll)
	sum.GainPctFavorable = mean(gainFav)
	sum.SpeedupFavorable = mean(speedFav)
	sum.OverallOverheadPct = mean(over)
	return sum
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
