package interp

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/prof"
)

var updateProfiles = flag.Bool("update", false, "rewrite the profile golden files")

// TestProfileGoldens pins every sample of every profile dimension — the
// folded stacks of work, waste, block and sched — for each example program
// on both tiers, with a nonzero context-switch cost so the sched dimension
// and the block accounting around every dispatch are exercised. Both tiers
// must produce the one golden byte for byte. Regenerate with
// `go test ./internal/interp -run TestProfileGoldens -update`.
func TestProfileGoldens(t *testing.T) {
	srcs, err := filepath.Glob(filepath.Join("..", "..", "examples", "*", "*.rvm"))
	if err != nil {
		t.Fatal(err)
	}
	if len(srcs) < 13 {
		t.Fatalf("found only %d example programs: %v", len(srcs), srcs)
	}
	for _, src := range srcs {
		src := src
		name := strings.TrimSuffix(filepath.Base(src), ".rvm")
		t.Run(name, func(t *testing.T) {
			golden := filepath.Join("testdata", "profiles", name+".folded")
			for _, tier := range allTiers {
				p, _ := profRun(t, src, tier)
				got := foldedProfiles(t, p)
				if *updateProfiles && tier == TierExec {
					if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(golden, got, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				want, err := os.ReadFile(golden)
				if err != nil {
					t.Fatalf("%v (regenerate with -update)", err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%v tier: profiles differ from %s:\n--- got\n%s--- want\n%s", tier, golden, got, want)
				}
			}
		})
	}
}

// foldedProfiles renders all four dimensions as folded stacks, each under
// a "# dim" header line.
func foldedProfiles(t *testing.T, p *prof.Profiler) []byte {
	t.Helper()
	var buf bytes.Buffer
	snap := p.Snapshot()
	for _, d := range prof.Dims() {
		buf.WriteString("# " + d.String() + "\n")
		if err := snap.WriteFolded(&buf, d); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}
