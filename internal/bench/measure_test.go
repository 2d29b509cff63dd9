package bench

import "testing"

// BenchResult is one benchmark's wall-clock outcome, as the budget tests
// read it.
type BenchResult struct {
	Name        string
	Iterations  int
	NsPerOp     float64
	BytesPerOp  int64
	AllocsPerOp int64
}

// measure runs one benchmark body under testing.Benchmark.
func measure(name string, body func(b *testing.B)) BenchResult {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		body(b)
	})
	nsPerOp := float64(r.T.Nanoseconds()) / float64(r.N)
	// A body that reports its own "ns/op" metric (e.g. the monitor pair
	// benchmarks, which time two operations per iteration) overrides the
	// per-iteration default.
	if v, ok := r.Extra["ns/op"]; ok {
		nsPerOp = v
	}
	return BenchResult{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     nsPerOp,
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}
