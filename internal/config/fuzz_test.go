package config

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzCompileLabSpec feeds arbitrary bytes through the whole lab-spec
// pathway a deployment runs on an uploaded spec: Parse, then — for input
// that parses without an error diagnostic — Compile, InitialModelState
// and CustomRules. None of them may panic, and Compile may refuse a spec
// only for lint errors. The corpus is seeded with the shipped configs.
func FuzzCompileLabSpec(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "configs", "*.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no seed configs found: %v", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, diags := Parse(data)
		if HasErrors(diags) {
			return
		}
		lab, err := Compile(spec)
		if err != nil {
			if !HasErrors(Lint(spec)) {
				t.Fatalf("Compile refused a lint-clean spec: %v", err)
			}
			return
		}
		lab.InitialModelState()
		_, _ = lab.CustomRules()
	})
}
