package iflex_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// yamlKey matches a block-mapping key at the start of a (dedented) line:
// a plain or quoted scalar followed by a colon and a space or line end.
var yamlKey = regexp.MustCompile(`^("[^"]*"|'[^']*'|[^\s:#"'][^:#]*?):(\s|$)`)

// duplicateYAMLKeys reports every mapping key that appears twice in the
// same block mapping of a YAML document, reading structure from
// indentation alone (the subset of YAML a workflow file uses: block
// mappings, "- " sequence items, comments and block scalars). A parser
// that keeps the last duplicate silently turns one job into another, so
// a workflow must have none.
func duplicateYAMLKeys(src string) []string {
	type scope struct {
		col  int
		keys map[string]int // key -> line it first appeared on
	}
	var stack []scope
	var dups []string
	scalarCol := -1 // lines deeper than this belong to a block scalar
	for n, line := range strings.Split(src, "\n") {
		trimmed := strings.TrimLeft(line, " ")
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			continue
		}
		col := len(line) - len(trimmed)
		if scalarCol >= 0 && col > scalarCol {
			continue
		}
		scalarCol = -1
		for len(stack) > 0 && stack[len(stack)-1].col > col {
			stack = stack[:len(stack)-1]
		}
		// A sequence item opens a fresh mapping two columns in.
		for strings.HasPrefix(trimmed, "- ") || trimmed == "-" {
			col += 2
			trimmed = strings.TrimLeft(strings.TrimPrefix(trimmed, "-"), " ")
			stack = append(stack, scope{col: col, keys: map[string]int{}})
		}
		if len(stack) == 0 || stack[len(stack)-1].col < col {
			stack = append(stack, scope{col: col, keys: map[string]int{}})
		}
		m := yamlKey.FindStringSubmatch(trimmed)
		if m == nil {
			continue
		}
		key := strings.Trim(m[1], `"'`)
		top := stack[len(stack)-1]
		if first, ok := top.keys[key]; ok {
			dups = append(dups, fmt.Sprintf("line %d: key %q repeats line %d", n+1, key, first))
		} else {
			top.keys[key] = n + 1
		}
		value := strings.TrimSpace(trimmed[len(m[0]):])
		if strings.HasPrefix(value, "|") || strings.HasPrefix(value, ">") {
			scalarCol = col
		}
	}
	return dups
}

// makeTargets lists the rule targets a Makefile defines.
func makeTargets(src string) map[string]bool {
	rule := regexp.MustCompile(`(?m)^([A-Za-z0-9_.-]+(?:[ \t]+[A-Za-z0-9_.-]+)*)[ \t]*:([^=]|$)`)
	out := map[string]bool{}
	for _, m := range rule.FindAllStringSubmatch(src, -1) {
		for _, t := range strings.Fields(m[1]) {
			out[t] = true
		}
	}
	return out
}

// TestWorkflowsWellFormed keeps CI gating what it claims to gate: no
// workflow may repeat a mapping key, and every `make <target>` a workflow
// runs must be a target of the Makefile.
func TestWorkflowsWellFormed(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := makeTargets(string(mk))
	files, err := filepath.Glob(filepath.Join(".github", "workflows", "*.yml"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no workflow files found (err %v)", err)
	}
	makeCall := regexp.MustCompile(`\bmake\s+([A-Za-z0-9_.-]+)`)
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range duplicateYAMLKeys(string(src)) {
			t.Errorf("%s: %s", f, d)
		}
		for _, m := range makeCall.FindAllStringSubmatch(string(src), -1) {
			if !targets[m[1]] {
				t.Errorf("%s: runs `make %s`, which Makefile does not define", f, m[1])
			}
		}
	}
}

// TestDuplicateYAMLKeysChecker shows the checker catches a job whose
// steps run straight into the next job's keys, and accepts the repaired
// form and repeated keys in different mappings.
func TestDuplicateYAMLKeysChecker(t *testing.T) {
	broken := `jobs:
  crash:
    name: crash
    runs-on: ubuntu-latest
    steps:
      - uses: actions/checkout@v4
      - run: go test -run Crash ./...
    name: optimizer report
    runs-on: ubuntu-latest
    steps:
      - run: make bench-optimizer
`
	if d := duplicateYAMLKeys(broken); len(d) != 3 {
		t.Errorf("broken workflow: got %q, want 3 duplicates (name, runs-on, steps)", d)
	}
	fixed := strings.Replace(broken, "    name: optimizer report", "\n  bench-optimizer:\n    name: optimizer report", 1)
	fine := fixed + `  other:
    steps:
      - uses: a
        with:
          go-version: "1.24"
      - uses: b
        with:
          go-version: "1.24"
      - run: |
          name: x
          name: x
`
	if d := duplicateYAMLKeys(fine); len(d) != 0 {
		t.Errorf("well-formed workflow flagged: %q", d)
	}
	if !makeTargets("a b: c\nd:\n\tx\nE := 1\n")["b"] || makeTargets("E := 1\n")["E"] {
		t.Error("makeTargets misreads rules or assignments")
	}
}
