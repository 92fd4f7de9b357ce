package codegen

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"macedon/internal/dsl"
)

// TestRegistryChecksLayering: the specs a registry is generated from are
// checked as a set (CheckLayering), and a spec is refused at the line and
// column of its header at fault when its base is not in the set, when a
// `uses` chain comes back to where it started, or when it sets a param its
// base declares no int auxiliary variable for. The others in the set pass,
// and a spec that did not parse is skipped.
func TestRegistryChecksLayering(t *testing.T) {
	const low = "protocol low\ntransports { UDP u; }\nauxiliary_data { int fan; double w; }\n"
	for _, c := range []struct {
		name  string
		specs []string
		want  string // the last spec's error
	}{
		{"unknown base", []string{low, "protocol up uses lw\n"},
			`1:18: protocol up uses unknown base "lw"`},
		{"cycle", []string{low, "protocol b uses a\n", "protocol a uses b\n"},
			"1:17: protocol a uses itself through its chain of bases"},
		{"self", []string{"protocol a uses a\n"},
			"1:17: protocol a uses itself through its chain of bases"},
		{"undeclared param", []string{low, "protocol up uses low(fan = 2, fans = 3)\n"},
			`1:31: base low declares no int auxiliary variable "fans"`},
		{"non-int param", []string{low, "protocol up uses low(w = 2)\n"},
			`1:22: base low declares no int auxiliary variable "w"`},
		{"unparsed base", []string{"", "protocol up uses low(fan = 2)\n"},
			`1:18: protocol up uses unknown base "low"`},
	} {
		specs := make([]*dsl.Spec, len(c.specs))
		for i, src := range c.specs {
			if src == "" {
				continue
			}
			var err error
			if specs[i], err = dsl.Parse(src); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		errs := CheckLayering(specs)
		last := len(specs) - 1
		if err := errs[last]; err == nil || err.Error() != c.want {
			t.Errorf("%s: error %v, want %s", c.name, err, c.want)
		}
		if c.name != "cycle" && slices.ContainsFunc(errs[:last], func(e *dsl.Error) bool { return e != nil }) {
			t.Errorf("%s: errors %v for the specs before the last", c.name, errs)
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
	src := Registry(specs, "example.org/m/protos")
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
	for _, c := range bundledSpecs(t) {
		specs = append(specs, loadSpec(t, c.spec))
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
	specs = append(specs, echo)
	if errs := CheckLayering(specs); slices.ContainsFunc(errs, func(e *dsl.Error) bool { return e != nil }) {
		t.Fatalf("the set fails its layering checks: %v", errs)
	}
	reg := Registry(specs, "macedon/internal/overlays")
	if want := `"echo": {"chord", map[string]int{"fix_ms": 500}, echo.New()},`; !strings.Contains(reg, want) {
		t.Errorf("registry lacks %s:\n%s", want, reg)
	}
}
