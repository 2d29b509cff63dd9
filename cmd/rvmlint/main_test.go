package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGolden locks rvmlint's text output over the example programs. Run
// with -update after an intentional output change. The racy examples are
// linted with -races so the goldens pin the static lockset findings too.
func TestGolden(t *testing.T) {
	cases := []struct {
		name string
		dir  string
		args []string
	}{
		{"lockorder", "bytecode", nil},
		{"native_section", "bytecode", nil},
		{"inversion", "bytecode", nil},
		{"counter", "racy", []string{"-races"}},
		{"volbypass", "racy", []string{"-races"}},
		{"deadlock", "deadlock", []string{"-deadlocks"}},
		{"deadlock2", "deadlock2", []string{"-deadlocks"}},
		{"aliasdl", "aliasdl", []string{"-deadlocks"}},
		{"confined", "confined", []string{"-escape"}},
		{"escaping", "escape", []string{"-escape"}},
		{"recdl", "recdl", []string{"-deadlocks"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src := filepath.Join("..", "..", "examples", c.dir, c.name+".rvm")
			var out, errOut bytes.Buffer
			if code := run(append(c.args, src), &out, &errOut); code != 0 {
				t.Fatalf("exit %d, stderr: %s", code, errOut.String())
			}
			golden := filepath.Join("testdata", c.name+".golden")
			if *update {
				if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("output drifted from %s:\n--- got ---\n%s--- want ---\n%s", golden, out.String(), want)
			}
		})
	}
}

// TestSeededFindings asserts the load-bearing findings directly, so the
// intent survives even a golden regeneration: the lockorder example must
// report a cycle, the native example a non-revocable section.
func TestSeededFindings(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{
		"-fail-on-cycle",
		filepath.Join("..", "..", "examples", "bytecode", "lockorder.rvm"),
	}, &out, &errOut)
	if code != 1 {
		t.Errorf("-fail-on-cycle exit = %d, want 1; stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "static:A <-> static:B") {
		t.Errorf("cycle not reported:\n%s", out.String())
	}

	out.Reset()
	if code := run([]string{
		"-fail-on-cycle",
		filepath.Join("..", "..", "examples", "bytecode", "native_section.rvm"),
	}, &out, &errOut); code != 0 {
		t.Errorf("cycle-free program exited %d", code)
	}
	if !strings.Contains(out.String(), "NON-REVOCABLE") || !strings.Contains(out.String(), "native-call print") {
		t.Errorf("native section not flagged:\n%s", out.String())
	}

	out.Reset()
	code = run([]string{
		"-races", "-fail-on-race",
		filepath.Join("..", "..", "examples", "racy", "counter.rvm"),
	}, &out, &errOut)
	if code != 1 {
		t.Errorf("-fail-on-race exit = %d, want 1; stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "race: static:counter") {
		t.Errorf("counter race not reported:\n%s", out.String())
	}

	out.Reset()
	code = run([]string{
		"-races",
		filepath.Join("..", "..", "examples", "racy", "volbypass.rvm"),
	}, &out, &errOut)
	if code != 0 {
		t.Errorf("-races without -fail-on-race exited %d", code)
	}
	if !strings.Contains(out.String(), "volatile-bypass: static:flag  raw-store") {
		t.Errorf("raw-store bypass not reported:\n%s", out.String())
	}
}

// TestUsageMentionsEveryFlag: the usage synopsis printed on a bad
// invocation is generated from the registered flag set (usageLine), so
// this asserts the property directly — every flag the parser accepts must
// appear in the usage output, and nothing in the flag table can drift out
// of the printed help.
func TestUsageMentionsEveryFlag(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(nil, &out, &errOut); code != 2 {
		t.Fatalf("no-args exit = %d, want 2", code)
	}
	usage := errOut.String()
	if !strings.Contains(usage, "usage: rvmlint") {
		t.Fatalf("usage line missing:\n%s", usage)
	}
	// Enumerate the registered flags through the parser itself (a bad
	// flag makes ContinueOnError print the full defaults table), so a
	// flag added to run() without updating anything else is still checked.
	var probe bytes.Buffer
	run([]string{"-this-flag-does-not-exist"}, &out, &probe)
	for _, name := range flagNamesFromDefaults(probe.String()) {
		if !strings.Contains(usage, "[-"+name+"]") {
			t.Errorf("usage synopsis omits registered flag -%s:\n%s", name, usage)
		}
		if !strings.Contains(usage, "-"+name+"\n") && !strings.Contains(usage, "-"+name+" ") {
			t.Errorf("flag table omits -%s:\n%s", name, usage)
		}
	}
}

// flagNamesFromDefaults extracts flag names from a PrintDefaults dump
// ("  -name\n    \tusage" lines).
func flagNamesFromDefaults(dump string) []string {
	var names []string
	for _, line := range strings.Split(dump, "\n") {
		if rest, ok := strings.CutPrefix(line, "  -"); ok {
			names = append(names, strings.Fields(rest)[0])
		}
	}
	return names
}

// TestEscapeFindings pins the -escape text pass and the
// -fail-on-escape-regression gate: the confined example's lock is proved
// thread-confined (exit 0 even under the gate), while the escape example
// publishes its scratch lock to a static and must trip it.
func TestEscapeFindings(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{
		"-escape", "-fail-on-escape-regression",
		filepath.Join("..", "..", "examples", "confined", "confined.rvm"),
	}, &out, &errOut)
	if code != 0 {
		t.Errorf("confined example tripped the escape gate (exit %d): %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "thread-confined") {
		t.Errorf("confinement proof not reported:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "elide whole monitor at") {
		t.Errorf("elision sites not reported:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "race-free slots: 1 certified") {
		t.Errorf("race-free certification not reported:\n%s", out.String())
	}

	out.Reset()
	code = run([]string{
		"-escape", "-fail-on-escape-regression",
		filepath.Join("..", "..", "examples", "escape", "escaping.rvm"),
	}, &out, &errOut)
	if code != 1 {
		t.Errorf("-fail-on-escape-regression exit = %d, want 1; stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "shared") || !strings.Contains(out.String(), "escapes") {
		t.Errorf("escaping lock not reported:\n%s", out.String())
	}
}

// TestBehavioralFindings pins the load-bearing behavioral-pass results on
// the deadlock corpus: the SCC pass sees only the statically named cycle,
// the behavioral pass sees all three shapes, and -fail-on-deadlock gates.
func TestBehavioralFindings(t *testing.T) {
	cases := []struct {
		path     string
		wantSCC  bool
		wantLock string
	}{
		{filepath.Join("deadlock", "deadlock.rvm"), true, "static:A <-> static:B"},
		{filepath.Join("deadlock2", "deadlock2.rvm"), false, "array:elem (multi-instance self-cycle)"},
		{filepath.Join("aliasdl", "aliasdl.rvm"), false, "field:#0 (multi-instance self-cycle)"},
	}
	for _, c := range cases {
		var out, errOut bytes.Buffer
		code := run([]string{
			"-deadlocks", "-fail-on-deadlock",
			filepath.Join("..", "..", "examples", c.path),
		}, &out, &errOut)
		if code != 1 {
			t.Errorf("%s: -fail-on-deadlock exit = %d, want 1; stderr: %s", c.path, code, errOut.String())
		}
		if !strings.Contains(out.String(), "deadlock: "+c.wantLock) {
			t.Errorf("%s: behavioral deadlock %q not reported:\n%s", c.path, c.wantLock, out.String())
		}
		gotSCC := strings.Contains(out.String(), "potential deadlocks (lock-order cycles):")
		if gotSCC != c.wantSCC {
			t.Errorf("%s: SCC cycle reported=%v, want %v:\n%s", c.path, gotSCC, c.wantSCC, out.String())
		}
	}
}

// TestSARIFOutput: -sarif emits one valid SARIF 2.1.0 log covering every
// input file, with behavioral-deadlock results only where the pass found
// something. The corpus is chosen so every registered rule kind fires at
// least once, and the schema shape is checked on every result: the rule
// id must be declared in the driver table, every result must carry an
// artifact location, and the level must be a legal SARIF kind that
// matches the rule table's declaration.
func TestSARIFOutput(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{
		"-sarif",
		filepath.Join("..", "..", "examples", "bytecode", "lockorder.rvm"),
		filepath.Join("..", "..", "examples", "deadlock2", "deadlock2.rvm"),
		filepath.Join("..", "..", "examples", "racy", "counter.rvm"),
		filepath.Join("..", "..", "examples", "racy", "volbypass.rvm"),
		filepath.Join("..", "..", "examples", "confined", "confined.rvm"),
		filepath.Join("..", "..", "examples", "escape", "escaping.rvm"),
		filepath.Join("..", "..", "examples", "recdl", "recdl.rvm"),
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Level     string `json:"level"`
				Message   struct{ Text string }
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(out.Bytes(), &log); err != nil {
		t.Fatalf("bad SARIF JSON: %v\n%s", err, out.String())
	}
	if log.Schema != "https://json.schemastore.org/sarif-2.1.0.json" {
		t.Errorf("$schema = %q", log.Schema)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("version %q runs %d, want 2.1.0 with one run", log.Version, len(log.Runs))
	}
	r := log.Runs[0]
	if r.Tool.Driver.Name != "rvmlint" || len(r.Tool.Driver.Rules) == 0 {
		t.Fatalf("driver = %+v", r.Tool.Driver)
	}
	declared := map[string]bool{}
	for _, rule := range r.Tool.Driver.Rules {
		declared[rule.ID] = true
	}
	legalLevel := map[string]bool{"note": true, "warning": true, "error": true}
	byRule := map[string][]string{}
	for _, res := range r.Results {
		if !declared[res.RuleID] {
			t.Errorf("result rule %q not declared in the driver rule table", res.RuleID)
		}
		if !legalLevel[res.Level] {
			t.Errorf("result %s has illegal level %q", res.RuleID, res.Level)
		}
		if want := sarifLevel(res.RuleID); res.Level != want {
			t.Errorf("result %s level %q disagrees with rule table %q", res.RuleID, res.Level, want)
		}
		if len(res.Locations) == 0 {
			t.Errorf("result %s has no locations", res.RuleID)
		}
		for _, loc := range res.Locations {
			if loc.PhysicalLocation.ArtifactLocation.URI == "" {
				t.Errorf("result %s has a location without an artifact URI", res.RuleID)
			}
			byRule[res.RuleID] = append(byRule[res.RuleID], loc.PhysicalLocation.ArtifactLocation.URI)
		}
	}
	has := func(rule, file string) bool {
		for _, f := range byRule[rule] {
			if f == file {
				return true
			}
		}
		return false
	}
	if !has("lock-order-cycle", "lockorder.rvm") {
		t.Errorf("lockorder cycle missing from SARIF: %v", byRule)
	}
	if !has("behavioral-deadlock", "deadlock2.rvm") {
		t.Errorf("deadlock2 behavioral finding missing from SARIF: %v", byRule)
	}
	if !has("behavioral-deadlock", "recdl.rvm") {
		t.Errorf("recursion-only deadlock missing from SARIF: %v", byRule)
	}
	if has("behavioral-deadlock", "counter.rvm") {
		t.Errorf("spurious behavioral finding for counter.rvm: %v", byRule)
	}
	if !has("candidate-race", "counter.rvm") {
		t.Errorf("counter race missing from SARIF: %v", byRule)
	}
	if !has("volatile-bypass", "volbypass.rvm") {
		t.Errorf("volatile bypass missing from SARIF: %v", byRule)
	}
	if !has("confined-monitor", "confined.rvm") {
		t.Errorf("confined-monitor finding missing from SARIF: %v", byRule)
	}
	if !has("race-free-slot", "confined.rvm") {
		t.Errorf("race-free-slot finding missing from SARIF: %v", byRule)
	}
	if !has("escaping-lock", "escaping.rvm") {
		t.Errorf("escaping-lock finding missing from SARIF: %v", byRule)
	}
	// Every declared rule fired somewhere in this corpus — the table
	// carries no dead rules and no rule kind goes untested.
	for id := range declared {
		if len(byRule[id]) == 0 {
			t.Errorf("declared rule %q never fired over the test corpus", id)
		}
	}
}

// TestJSONOutput: -json emits one parseable report per input file with the
// fields CI consumes.
func TestJSONOutput(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{
		"-json",
		filepath.Join("..", "..", "examples", "bytecode", "lockorder.rvm"),
		filepath.Join("..", "..", "examples", "bytecode", "native_section.rvm"),
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	var reports []struct {
		File  string `json:"file"`
		Facts struct {
			Sections []struct {
				NonRevocable bool `json:"non_revocable"`
			} `json:"sections"`
			Cycles         []json.RawMessage `json:"cycles"`
			TotalStores    int               `json:"total_stores"`
			ElidableStores int               `json:"elidable_stores"`
		} `json:"facts"`
	}
	if err := json.Unmarshal(out.Bytes(), &reports); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out.String())
	}
	if len(reports) != 2 {
		t.Fatalf("got %d reports, want 2", len(reports))
	}
	if reports[0].File != "lockorder.rvm" || len(reports[0].Facts.Cycles) != 1 {
		t.Errorf("lockorder report wrong: %+v", reports[0])
	}
	nonRev := 0
	for _, s := range reports[1].Facts.Sections {
		if s.NonRevocable {
			nonRev++
		}
	}
	if reports[1].File != "native_section.rvm" || nonRev != 1 {
		t.Errorf("native_section report wrong: %+v", reports[1])
	}
	if reports[0].Facts.TotalStores == 0 || reports[0].Facts.ElidableStores == 0 {
		t.Errorf("store counters empty: %+v", reports[0].Facts)
	}
}

// TestDuplicateMethodRejected: two methods of one name once reached the
// analysis and crashed it (index out of range in the elision pass); the
// assembler now rejects the program, and rvmlint exits 1 naming both
// declarations.
func TestDuplicateMethodRejected(t *testing.T) {
	src := filepath.Join(t.TempDir(), "dup.rvm")
	prog := "static flag\nthread t priority 5 run e\nmethod e {\nconst 0\nputstatic flag\nreturn\n}\nmethod e {\nreturn\n}\n"
	if err := os.WriteFile(src, []byte(prog), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := run([]string{src}, &out, &errOut); code != 1 {
		t.Errorf("exit = %d, want 1; stderr: %s", code, errOut.String())
	}
	if want := `line 8: duplicate method "e" (first declared at line 3)`; !strings.Contains(errOut.String(), want) {
		t.Errorf("stderr %q does not name both declarations (%q)", errOut.String(), want)
	}
}
