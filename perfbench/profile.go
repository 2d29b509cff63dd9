package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"
)

// The traced run profiles this process with runtime/pprof and folds each
// sample by the module of its leaf frame into per-layer self times. The
// layers are the modules under internal/; Go runtime frames split into
// garbage collection, goroutine scheduling (park, ready, futex) and the
// rest.

type cpuProfile struct {
	base string // path prefix of the profile and per-layer metrics files
	file *os.File
}

func startCPUProfile(dir, name string) (*cpuProfile, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	p := &cpuProfile{base: filepath.Join(dir, name)}
	f, err := os.Create(p.base + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	p.file = f
	return p, nil
}

// stop ends the profile and returns the self time per layer.
func (p *cpuProfile) stop() (map[string]time.Duration, error) {
	pprof.StopCPUProfile()
	if err := p.file.Close(); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(p.base + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	samples, err := parseProfile(data)
	if err != nil {
		return nil, fmt.Errorf("reading CPU profile: %w", err)
	}
	self := map[string]time.Duration{}
	for _, s := range samples {
		self[layerOf(s.stack)] += s.cpu
	}
	return self, nil
}

// layers are the modules under internal/ that get their own self time.
// The virtual clock (simtime) counts as the scheduler that owns it.
var layers = []string{"sched", "core", "undo", "jmm", "heap", "monitor", "trace", "interp",
	"bytecode", "rewrite", "analysis", "obs", "prof", "fr", "causal", "race"}

// Runtime frames that put a sample under garbage collection or under
// goroutine scheduling when any of them is on the stack.
var (
	gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
		"runtime.bgscavenge", "runtime.gcStart", "runtime.sweepone", "runtime.markroot", "runtime.gcDrain"}
	schedFrames = []string{"runtime.chansend", "runtime.chanrecv", "runtime.selectgo", "runtime.gopark",
		"runtime.goready", "runtime.ready", "runtime.mcall", "runtime.park_m", "runtime.schedule",
		"runtime.findRunnable", "runtime.wakep", "runtime.startm", "runtime.stopm", "runtime.notesleep",
		"runtime.notewakeup", "runtime.futex", "runtime.goexit0", "runtime.newproc", "runtime.mstart"}
)

// layerOf names the layer a sample's leaf frame belongs to. The fmt and
// strconv work the VM's trace event details cost counts as trace.
func layerOf(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	leaf := stack[0]
	switch {
	case strings.HasPrefix(leaf, "repro/internal/"):
		mod := strings.TrimPrefix(leaf, "repro/internal/")
		if i := strings.IndexAny(mod, "./"); i >= 0 {
			mod = mod[:i]
		}
		if mod == "simtime" {
			return "sched"
		}
		for _, l := range layers {
			if l == mod {
				return l
			}
		}
		return "other"
	case strings.HasPrefix(leaf, "main.") || strings.HasPrefix(leaf, "repro/perfbench."):
		return "bench"
	case strings.HasPrefix(leaf, "fmt.") || strings.HasPrefix(leaf, "strconv.") ||
		strings.HasPrefix(leaf, "unicode/utf8.") || strings.HasPrefix(leaf, "internal/fmtsort."):
		return "trace"
	case strings.HasPrefix(leaf, "runtime.") || strings.HasPrefix(leaf, "internal/runtime/") ||
		strings.HasPrefix(leaf, "runtime/internal/"):
		switch {
		case anyFrame(stack, gcFrames):
			return "go.gc"
		case anyFrame(stack, schedFrames):
			return "go.sched"
		}
		return "go"
	}
	return "other"
}

func anyFrame(stack, names []string) bool {
	for _, f := range stack {
		for _, n := range names {
			if f == n {
				return true
			}
		}
	}
	return false
}

// sample is one profile sample: its stack, leaf first, and its CPU time.
type sample struct {
	stack []string
	cpu   time.Duration
}

// parseProfile decodes the gzipped pprof protobuf runtime/pprof writes,
// keeping only what folding needs: each sample's CPU nanoseconds and its
// stack of function names, innermost (inlined) frame first.
func parseProfile(data []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		strs      []string
		types     [][2]int64 // sample_type: (type, unit) string indexes
		rawSample [][]byte
		locs      = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcs     = map[uint64]int64{}    // function id -> name string index
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1:
			var t [2]int64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					t[n-1] = int64(v)
				}
				return nil
			})
			types = append(types, t)
			return err
		case 2:
			rawSample = append(rawSample, b)
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(b, func(n int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(lb, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	cpuIdx := -1
	for i, t := range types {
		if str(t[0]) == "cpu" && str(t[1]) == "nanoseconds" {
			cpuIdx = i
		}
	}
	if cpuIdx < 0 {
		return nil, fmt.Errorf("no cpu/nanoseconds sample type")
	}
	var out []sample
	for _, b := range rawSample {
		var locIDs []uint64
		var values []int64
		err := eachField(b, func(n int, v uint64, pb []byte) error {
			switch n {
			case 1:
				if pb != nil {
					return eachVarint(pb, func(v uint64) { locIDs = append(locIDs, v) })
				}
				locIDs = append(locIDs, v)
			case 2:
				if pb != nil {
					return eachVarint(pb, func(v uint64) { values = append(values, int64(v)) })
				}
				values = append(values, int64(v))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if cpuIdx >= len(values) {
			continue
		}
		s := sample{cpu: time.Duration(values[cpuIdx])}
		for _, id := range locIDs {
			for _, fn := range locs[id] {
				s.stack = append(s.stack, str(funcs[fn]))
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// eachField walks a protobuf message, calling f with each field's number
// and either its varint value or its length-delimited bytes (nil for
// varints). Fixed-width fields are skipped.
func eachField(b []byte, f func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("bad varint")
			}
			b = b[n:]
			if err := f(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad length")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := f(num, 0, data); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("short fixed64")
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

func eachVarint(b []byte, f func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad packed varint")
		}
		f(v)
		b = b[n:]
	}
	return nil
}

// perLayer computes the per-layer metrics of a traced run. Times and
// counts are per round; the set-up phases ran once.
func perLayer(rounds []*tally, ph phases, self map[string]time.Duration, counter *eventCounter) map[string]metric {
	n := float64(len(rounds))
	m := map[string]metric{}
	secs := func(name string, d time.Duration) { m[name] = metric{d.Seconds() / n, "s"} }
	cnt := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	for _, l := range append(append([]string(nil), layers...), "bench", "other") {
		secs(l+".self_s", self[l])
	}
	secs("go.self_s", self["go"])
	secs("go.gc_s", self["go.gc"])
	secs("go.sched_s", self["go.sched"])

	var phase = map[string]time.Duration{}
	var count = map[string]float64{}
	var gcCycles, mallocs uint64
	for _, t := range rounds {
		for k, v := range t.d {
			phase[k] += v
		}
		for k, v := range t.count {
			count[k] += v / n
		}
		gcCycles += t.goDelta.gcCycles
		mallocs += t.goDelta.mallocs
	}
	for _, k := range []string{"interp.exec.run_s", "interp.threaded.run_s", "obs.report_s", "prof.export_s", "fr.dump_s", "causal.build_s"} {
		secs(k, phase[k])
	}
	for _, k := range []string{"bytecode.assemble_s", "bytecode.verify_s", "rewrite.rewrite_s", "analysis.analyze_s", "rewrite.elide_s", "analysis.certify_s"} {
		m[k] = metric{ph.d[k].Seconds(), "s"}
	}
	for _, k := range []string{"bytecode.instructions", "analysis.certificates", "rewrite.stores_elided"} {
		cnt(k, ph.count[k], "count")
	}
	cnt("obs.spans", count["obs.spans"], "count")
	cnt("causal.points", count["causal.points"], "count")
	cnt("fr.bytes", count["fr.bytes"], "bytes")
	cnt("go.gc_cycles", float64(gcCycles)/n, "count")
	cnt("go.mallocs", float64(mallocs)/n, "count")
	cnt("trace.events", float64(counter.n)/n, "count")

	// Counters of the first round; every round repeats them.
	t := rounds[0]
	s := t.stats
	cnt("sched.switches", float64(s.ContextSwitches), "count")
	schedSelf := self["sched"] + self["go.sched"]
	cnt("sched.ns_per_switch", perUnit(schedSelf/time.Duration(len(rounds)), s.ContextSwitches), "ns")
	// The barrier path spans core and the undo log, JMM table and heap it
	// calls into.
	barrier := self["core"] + self["undo"] + self["jmm"] + self["heap"]
	cnt("core.ns_per_op", perUnit(barrier/time.Duration(len(rounds)), t.ops), "ns")
	cnt("core.barrier_fast_paths", float64(s.BarrierFastPaths), "count")
	cnt("core.raw_stores", float64(s.RawStores), "count")
	cnt("core.inversions", float64(s.Inversions), "count")
	cnt("core.revocation_requests", float64(s.RevocationRequests), "count")
	cnt("core.rollbacks", float64(s.Rollbacks), "count")
	cnt("core.wasted_ticks", float64(s.WastedTicks), "ticks")
	cnt("core.deadlocks_broken", float64(s.DeadlocksBroken), "count")
	useful := 0.0
	if t.cpu > 0 {
		useful = float64(t.cpu-int64(s.WastedTicks)) / float64(t.cpu)
	}
	cnt("core.useful_ratio", useful, "ratio")
	cnt("undo.entries_logged", float64(s.EntriesLogged), "count")
	cnt("undo.entries_undone", float64(s.EntriesUndone), "count")
	cnt("undo.stores_deduped", float64(s.StoresDeduped), "count")
	cnt("jmm.dependencies", float64(s.Dependencies), "count")
	cnt("jmm.nonrevocable_marks", float64(s.NonRevocableMarks), "count")
	cnt("monitor.thin_acquisitions", float64(s.ThinAcquisitions), "count")
	cnt("monitor.inflations", float64(s.Inflations), "count")
	cnt("monitor.deflations", float64(s.Deflations), "count")
	return m
}

// perUnit is d in nanoseconds per unit of n, or zero when n is zero.
func perUnit(d time.Duration, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

// writeLayerFile writes the per-layer metrics as indented JSON, sorted by
// name.
func writeLayerFile(path string, m map[string]metric) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
