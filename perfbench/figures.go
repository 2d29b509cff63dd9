package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"

	"repro/revoke"
)

// The figures workload is the paper's §4.1 micro-benchmark over the grid of
// Figures 5-8, driven through the revoke task API on both VMs: thread mixes
// 2+8, 5+5 and 8+2 (high+low), write ratios 0-100 %, and the 100K-style and
// 500K-style high-priority loops. Every thread runs a fixed number of
// synchronized sections on one shared monitor; a section is a loop of
// evenly interleaved reads and writes over a shared buffer, preceded by a
// random pause averaging one quantum.
//
// Each section's length is drawn within ±2 % of its loop's length. With
// every section exactly as long, section latencies pile onto a few exact
// costs and the median latency reads the same for every seed; the jitter
// spreads those piles without moving the panel shapes.

// Medium geometry: sections span 1.5 quanta of a low-priority thread's
// CPU, the ratio the panel shapes depend on (EXPERIMENTS.md).
const (
	figSections = 50
	figLowIters = 15000
	figBufLen   = 1024
	figCostOp   = 4 // ticks per shared-data operation
	figQuantum  = figCostOp * figLowIters * 2 / 3
	figJitter   = 50 // sections are within 1/figJitter of their loop's length
)

var (
	figMixes       = []struct{ high, low int }{{2, 8}, {5, 5}, {8, 2}}
	figWriteRatios = []int{0, 20, 40, 60, 80, 100}
)

// figCell is one grid point: the inputs both VMs run.
type figCell struct {
	high, low int
	writePct  int
	short     bool // 100K-style high-priority loop (a fifth of the low loop)
	seed      int64
	// Per thread, highs first, one entry per section: the pause before
	// it and its number of operations.
	pauses [][]revoke.Ticks
	iters  [][]int
	// ops and logs are the operations and undo entries of all the cell's
	// sections when each commits at its first attempt, computed apart
	// from the VM.
	ops, logs int64
}

// figRun is what one VM run of a cell yields.
type figRun struct {
	mode                  revoke.Mode
	highSpan, overallSpan int64
	cpu                   int64
	stats                 revoke.Stats
	sections              []int64
	ops                   int64
}

// figCells generates the grid's cells from seed, in panel order.
func figCells(seed int64) []*figCell {
	rng := rand.New(rand.NewSource(seed))
	logs := map[int][]int64{}
	for _, wp := range figWriteRatios {
		logs[wp] = logsAfter(figLowIters+figLowIters/figJitter, wp, figBufLen)
	}
	var cells []*figCell
	for _, short := range []bool{true, false} {
		for _, mix := range figMixes {
			for _, wp := range figWriteRatios {
				c := &figCell{high: mix.high, low: mix.low, writePct: wp, short: short, seed: rng.Int63()}
				for i := 0; i < c.high+c.low; i++ {
					loop := figLowIters
					if short && i < c.high {
						loop = figLowIters / 5
					}
					pauses := make([]revoke.Ticks, figSections)
					iters := make([]int, figSections)
					for s := range pauses {
						pauses[s] = revoke.Ticks(rng.Int63n(2*figQuantum + 1))
						iters[s] = loop - loop/figJitter + rng.Intn(2*(loop/figJitter)+1)
						c.ops += int64(iters[s])
						c.logs += logs[wp][iters[s]]
					}
					c.pauses = append(c.pauses, pauses)
					c.iters = append(c.iters, iters)
				}
				cells = append(cells, c)
			}
		}
	}
	return cells
}

func setupFigures(seed int64, ph phases, counter *eventCounter) (func(*tally), error) {
	cells := figCells(seed)
	shapeShown := false
	return func(t *tally) {
		var shape []figShape
		for _, c := range cells {
			var un, mo figRun
			okU := t.op(c.String()+" unmodified", func() (err error) {
				un, err = runFigCell(c, revoke.Unmodified, counter)
				return err
			}, func() error { return checkFigCPU(c, un) })
			okM := t.op(c.String()+" revocation", func() (err error) {
				mo, err = runFigCell(c, revoke.Revocation, counter)
				return err
			}, func() error { return checkFigCPU(c, mo) })
			t.addStats(un.stats, un.cpu)
			t.addStats(mo.stats, mo.cpu)
			t.ops += un.ops + mo.ops
			t.addRevocationRun(mo.highSpan, mo.overallSpan, mo.sections)
			if okU && okM {
				if err := checkFigShape(c, un, mo); err != nil {
					t.problem("%s: %v", c, err)
				}
				shape = append(shape, figShape{c,
					float64(mo.highSpan) / float64(un.highSpan),
					float64(mo.overallSpan) / float64(un.overallSpan)})
			}
		}
		if !shapeShown {
			printShape(os.Stderr, shape)
			shapeShown = true
		}
	}, nil
}

// panel names the cell's figure panel: its thread mix and loop.
func (c *figCell) panel() string {
	loop := "500K"
	if c.short {
		loop = "100K"
	}
	return fmt.Sprintf("%d+%d %s", c.high, c.low, loop)
}

func (c *figCell) String() string { return fmt.Sprintf("cell %s %d%%", c.panel(), c.writePct) }

// writeAt reports whether operation i of a section is a write: after i+1
// operations, writes are (i+1)*writePct/100 rounded down, spread evenly.
func writeAt(i, writePct int) bool {
	return (i+1)*writePct/100 > i*writePct/100
}

// logsAfter returns, for every section length n up to max, the undo
// entries a committed section of n operations logs: first-write-wins
// logging records each distinct buffer slot the section writes once.
func logsAfter(max, writePct, bufLen int) []int64 {
	out := make([]int64, max+1)
	written := make([]bool, bufLen)
	for i := 0; i < max; i++ {
		out[i+1] = out[i]
		if writeAt(i, writePct) && !written[i%bufLen] {
			written[i%bufLen] = true
			out[i+1]++
		}
	}
	return out
}

func runFigCell(c *figCell, mode revoke.Mode, counter *eventCounter) (figRun, error) {
	rt := revoke.NewRuntime(revoke.Config{
		Mode:              mode,
		TrackDependencies: mode == revoke.Revocation,
		CostRead:          figCostOp,
		CostWrite:         figCostOp,
		CostLogEntry:      1,
		CostUndoEntry:     1,
		Tracer:            counter.tracer(),
		Sched:             revoke.SchedConfig{Quantum: figQuantum, Seed: c.seed},
	})
	buf := rt.Heap().AllocArray(figBufLen)
	mon := rt.NewMonitor("shared")
	r := figRun{mode: mode}
	var highs, all []*revoke.Task
	for i, pauses := range c.pauses {
		high := i < c.high
		prio, name := revoke.LowPriority, fmt.Sprintf("low%d", i-c.high)
		if high {
			prio, name = revoke.HighPriority, fmt.Sprintf("high%d", i)
		}
		iters := c.iters[i]
		tk := rt.Spawn(name, prio, func(tk *revoke.Task) {
			for s, pause := range pauses {
				tk.Sleep(pause)
				requested := rt.Now()
				tk.Synchronized(mon, func() {
					// writeAt's interleaving, by carrying the write ratio
					// instead of dividing on every operation.
					carry, slot := 0, 0
					for op := 0; op < iters[s]; op++ {
						if carry += c.writePct; carry >= 100 {
							carry -= 100
							tk.WriteElem(buf, slot, revoke.Word(op))
						} else {
							tk.ReadElem(buf, slot)
						}
						if slot++; slot == figBufLen {
							slot = 0
						}
					}
				})
				if high {
					r.sections = append(r.sections, int64(rt.Now()-requested))
				}
			}
		})
		if high {
			highs = append(highs, tk)
		}
		all = append(all, tk)
	}
	if err := rt.Run(); err != nil {
		return r, err
	}
	r.highSpan, r.overallSpan = span(highs), span(all)
	r.cpu = threadCPU(rt)
	r.stats = rt.Stats()
	// Operations executed, rolled-back attempts included: each rolled-back
	// attempt's wasted ticks are figCostOp per operation plus one per entry
	// logged and one more per entry undone, and every entry it logged was
	// undone.
	r.ops = c.ops + (int64(r.stats.WastedTicks)-2*r.stats.EntriesUndone)/figCostOp
	return r, nil
}

// checkFigCPU checks the exact identity between the virtual CPU a run
// charged and the cell's parameters. Every operation costs figCostOp,
// every undo entry logged costs one tick and every entry undone one more;
// a rolled-back attempt's ticks, undo included, are exactly WastedTicks.
// Entries logged by rolled-back attempts are all undone, so
//
//	CPU = figCostOp*(committed operations) + (logged - undone) + wasted
//
// and the committed attempts log exactly the cell's logs. The unmodified
// VM logs, undoes and wastes nothing.
func checkFigCPU(c *figCell, r figRun) error {
	s := r.stats
	if want := figCostOp*c.ops + (s.EntriesLogged - s.EntriesUndone) + int64(s.WastedTicks); r.cpu != want {
		return fmt.Errorf("CPU %d ticks, identity gives %d (ops=%d logged=%d undone=%d wasted=%d)",
			r.cpu, want, c.ops, s.EntriesLogged, s.EntriesUndone, s.WastedTicks)
	}
	committed := int64(0)
	if r.mode == revoke.Revocation {
		committed = c.logs
	}
	if got := s.EntriesLogged - s.EntriesUndone; got != committed {
		return fmt.Errorf("committed sections logged %d undo entries, want %d", got, committed)
	}
	if r.mode == revoke.Unmodified && (s.EntriesLogged != 0 || s.Rollbacks != 0 || s.WastedTicks != 0) {
		return fmt.Errorf("unmodified VM logged %d, rolled back %d, wasted %d", s.EntriesLogged, s.Rollbacks, s.WastedTicks)
	}
	if n := len(r.sections); r.mode == revoke.Revocation && n != figSections*c.high {
		return fmt.Errorf("%d high-priority sections committed, want %d", n, figSections*c.high)
	}
	return nil
}

// checkFigShape checks the figures' claim that holds on every cell: with
// two high-priority threads against eight low, revocation always lowers the
// high-priority span (Figures 5a and 6a). The overall span is not checked
// per cell: at 0 % writes revocation adds no logging and can finish a cell
// slightly sooner than the unmodified VM.
func checkFigShape(c *figCell, un, mo figRun) error {
	if c.high == 2 && c.low == 8 && mo.highSpan >= un.highSpan {
		return fmt.Errorf("revocation high-priority span %d not below unmodified %d", mo.highSpan, un.highSpan)
	}
	return nil
}

// figShape is one cell's revocation ÷ unmodified span ratios.
type figShape struct {
	cell          *figCell
	high, overall float64
}

// printShape prints, per panel, the range over write ratios of the
// revocation VM's spans divided by the unmodified VM's: the paper-shape
// table of README.md.
func printShape(w io.Writer, shape []figShape) {
	fmt.Fprintln(w, "perfbench: panel      high span rev/unmod   overall span rev/unmod")
	for len(shape) > 0 {
		c := shape[0].cell
		n := 1
		for n < len(shape) && shape[n].cell.panel() == c.panel() {
			n++
		}
		loHi, hiHi, loAll, hiAll := shape[0].high, shape[0].high, shape[0].overall, shape[0].overall
		for _, s := range shape[1:n] {
			loHi, hiHi = min(loHi, s.high), max(hiHi, s.high)
			loAll, hiAll = min(loAll, s.overall), max(hiAll, s.overall)
		}
		fmt.Fprintf(w, "perfbench: %s   %.2f-%.2f             %.2f-%.2f\n", c.panel(), loHi, hiHi, loAll, hiAll)
		shape = shape[n:]
	}
}
