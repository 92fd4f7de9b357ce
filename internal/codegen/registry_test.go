package codegen

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"macedon/internal/dsl"
)

// TestRegistryChecksLayering: the registry of a set of specs is refused,
// at the file, line and column of the header at fault, when a base is not in
// the set, when a `uses` chain comes back to where it started, or when a
// header sets a param its base declares no int auxiliary variable for.
func TestRegistryChecksLayering(t *testing.T) {
	const low = "protocol low\ntransports { UDP u; }\nauxiliary_data { int fan; double w; }\n"
	for _, c := range []struct {
		name  string
		specs []string
		want  string
	}{
		{"unknown base", []string{low, "protocol up uses lw\n"},
			`up.mac: codegen: 1:18: protocol up uses unknown base "lw"`},
		{"cycle", []string{low, "protocol a uses b\n", "protocol b uses a\n"},
			"a.mac: codegen: 1:17: protocol a uses itself through its chain of bases"},
		{"self", []string{"protocol a uses a\n"},
			"a.mac: codegen: 1:17: protocol a uses itself through its chain of bases"},
		{"undeclared param", []string{low, "protocol up uses low(fan = 2, fans = 3)\n"},
			`up.mac: codegen: 1:31: base low declares no int auxiliary variable "fans"`},
		{"non-int param", []string{low, "protocol up uses low(w = 2)\n"},
			`up.mac: codegen: 1:22: base low declares no int auxiliary variable "w"`},
	} {
		var specs []*dsl.Spec
		var files []string
		for _, src := range c.specs {
			spec, err := dsl.Parse(src)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			specs, files = append(specs, spec), append(files, spec.Name+".mac")
		}
		if _, err := Registry(specs, files, "m/p"); err == nil || err.Error() != c.want {
			t.Errorf("%s: error %v, want %s", c.name, err, c.want)
		}
	}
}

// TestRegistryEntries: each spec's entry names its base and the params its
// header sets, a constant resolved to its value, and the registry imports
// every spec's package under the import path it is given.
func TestRegistryEntries(t *testing.T) {
	var specs []*dsl.Spec
	for _, src := range []string{
		"protocol up uses low(fan = FAN)\nconstants { FAN = 010; }\n",
		"protocol low\ntransports { UDP u; }\nauxiliary_data { int fan; }\n",
	} {
		spec, err := dsl.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	src, err := Registry(specs, []string{"up.mac", "low.mac"}, "example.org/m/protos")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"package protos\n",
		"\t\"example.org/m/protos/low\"\n\t\"example.org/m/protos/up\"\n",
		"\t\"low\": {\"\", map[string]int{}, low.New()},\n",
		"\t\"up\": {\"low\", map[string]int{\"fan\": 10}, up.New()},\n",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("registry lacks %q:\n%s", want, src)
		}
	}
	if _, err := parser.ParseFile(token.NewFileSet(), "protos.go", src, 0); err != nil {
		t.Fatalf("registry does not parse: %v\n%s", err, src)
	}
}

// TestEchoSpecRegisters: testdata/echo.mac, the spec CI generates beside the
// bundled ones to run a scenario with no edit under internal/harness, checks
// against them as a set and registers over Chord with its declared param.
func TestEchoSpecRegisters(t *testing.T) {
	var specs []*dsl.Spec
	var files []string
	for _, c := range bundledSpecs(t) {
		specs, files = append(specs, loadSpec(t, c.spec)), append(files, c.spec)
	}
	src, err := os.ReadFile(filepath.Join("testdata", "echo.mac"))
	if err != nil {
		t.Fatal(err)
	}
	echo, err := dsl.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Generate(echo, echo.Name); err != nil {
		t.Fatal(err)
	}
	reg, err := Registry(append(specs, echo), append(files, "echo.mac"), "macedon/internal/overlays")
	if err != nil {
		t.Fatal(err)
	}
	if want := `"echo": {"chord", map[string]int{"fix_ms": 500}, echo.New()},`; !strings.Contains(reg, want) {
		t.Errorf("registry lacks %s:\n%s", want, reg)
	}
}
