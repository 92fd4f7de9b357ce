package codegen

import (
	"go/parser"
	"go/token"
	"os"
	"testing"

	"macedon/internal/dsl"
	"macedon/internal/repo"
)

// FuzzGenerate feeds every source that parses and validates to Generate, the
// path `macedon gen` takes after `macedon check` accepts a spec. Seed corpus:
// the bundled specs/*.mac, and well-formed and malformed routing declarations
// over a small spec. Properties: Generate does not panic, and whatever
// it returns is Go that go/parser accepts, so an untranslatable statement
// is an error, never broken source.
func FuzzGenerate(f *testing.F) {
	paths, err := repo.Specs()
	if err != nil || len(paths) == 0 {
		f.Fatalf("no specs found: %v", err)
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	for _, decl := range routingDecls {
		f.Add(routingBase + decl + "\n")
	}
	f.Fuzz(func(t *testing.T, src string) {
		spec, err := dsl.Parse(src)
		if err != nil || dsl.Validate(spec) != nil {
			return
		}
		res, err := Generate(spec, "genfuzz")
		if err != nil {
			return
		}
		if _, err := parser.ParseFile(token.NewFileSet(), "genfuzz.go", res.Source, 0); err != nil {
			t.Fatalf("generated source does not parse: %v\n%s", err, res.Source)
		}
	})
}
