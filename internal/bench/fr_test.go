package bench

import "testing"

// TestFlightRecorderAppendBudget pins the recorder's headline contract: a
// steady-state append stays allocation-free and under 50 ns. The
// allocation bound is exact (the Go allocator is deterministic); the
// timing bound takes the best of five runs so scheduler noise on shared
// CI machines — including the parallel packages of a full `go test ./...`
// competing for cores — cannot fail a healthy build.
func TestFlightRecorderAppendBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing budget under -short")
	}
	const budgetNs = 50.0
	best := measure("FlightRecorderAppend", FlightRecorderAppendBench)
	for rep := 1; rep < 5; rep++ {
		if r := measure("FlightRecorderAppend", FlightRecorderAppendBench); r.NsPerOp < best.NsPerOp {
			best = r
		}
	}
	if best.AllocsPerOp != 0 {
		t.Errorf("steady-state append allocates: %d allocs/op (%d B/op)", best.AllocsPerOp, best.BytesPerOp)
	}
	if best.NsPerOp >= budgetNs {
		t.Errorf("steady-state append too slow: %.1f ns/op, budget %.0f", best.NsPerOp, budgetNs)
	}
}
