package codegen

import (
	"go/format"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"macedon/internal/dsl"
	"macedon/internal/repo"
)

func TestCamel(t *testing.T) {
	cases := map[string]string{
		"accept": "Accept", "payload_type": "PayloadType", "x": "X",
		"probe_requester": "ProbeRequester",
	}
	for in, want := range cases {
		if got := camel(in); got != want {
			t.Errorf("camel(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestGoTypes(t *testing.T) {
	cases := map[string]string{
		"int": "int32", "double": "float64", "key": "overlay.Key",
		"node": "overlay.Address", "buffer": "[]byte", "nodeset": "[]overlay.Address",
	}
	for in, want := range cases {
		if got := goType(in); got != want {
			t.Errorf("goType(%q) = %q, want %q", in, got, want)
		}
	}
}

func loadSpec(t *testing.T, name string) *dsl.Spec {
	t.Helper()
	src, err := os.ReadFile(repo.Path("specs", name))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := dsl.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestGeneratedSourcesParse generates Go from every bundled spec and
// verifies the output is syntactically valid Go.
func TestGeneratedSourcesParse(t *testing.T) {
	paths, err := repo.Specs()
	if err != nil || len(paths) == 0 {
		t.Fatalf("no specs: %v", err)
	}
	for _, path := range paths {
		name := filepath.Base(path)
		spec := loadSpec(t, name)
		res, err := Generate(spec, "gen"+spec.Name)
		if err != nil {
			t.Errorf("%s: generate: %v", name, err)
			continue
		}
		fset := token.NewFileSet()
		if _, err := parser.ParseFile(fset, name+".go", res.Source, 0); err != nil {
			t.Errorf("%s: generated source does not parse: %v", name, err)
		}
		if res.Transitions == 0 {
			t.Errorf("%s: no transitions generated", name)
		}
	}
}

// fullyTranslated is the set of specs that must generate with zero TODO
// fallbacks — the CI gen-coverage job's regression floor.
var fullyTranslated = []struct {
	spec, pkg string
}{
	{"randtree.mac", "genrandtree"},
	{"chord.mac", "genchord"},
	{"pastry.mac", "genpastry"},
}

// TestFullyTranslatedSpecs proves the action-language subset covers the
// whole RandTree, Chord, and Pastry specifications: zero TODO fallbacks,
// and a positive Translated count surfaced through the Result.
func TestFullyTranslatedSpecs(t *testing.T) {
	for _, c := range fullyTranslated {
		spec := loadSpec(t, c.spec)
		res, err := Generate(spec, c.pkg)
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		if res.Opaque != 0 {
			t.Errorf("%s left %d untranslated statements", c.spec, res.Opaque)
		}
		if strings.Contains(res.Source, "TODO(macedon)") {
			t.Errorf("%s output contains TODO fallbacks", c.spec)
		}
		if res.Translated == 0 {
			t.Errorf("%s reports zero translated statements", c.spec)
		}
	}
}

// TestCheckedInGeneratedPackagesAreFresh regenerates every committed
// generated package in process and compares it byte for byte with the tree,
// so tier-1 catches a hand edit or a forgotten regeneration: the generator
// and its outputs can never drift apart.
func TestCheckedInGeneratedPackagesAreFresh(t *testing.T) {
	for _, c := range fullyTranslated {
		spec := loadSpec(t, c.spec)
		res, err := Generate(spec, c.pkg)
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		formatted, err := format.Source([]byte(res.Source))
		if err != nil {
			t.Fatalf("%s: generated source does not format: %v", c.spec, err)
		}
		committed, err := os.ReadFile(repo.Path("internal", "overlays", c.pkg, c.pkg+".go"))
		if err != nil {
			t.Fatal(err)
		}
		if string(committed) != string(formatted) {
			t.Errorf("internal/overlays/%s differs from the generator's output (never edit it by hand): run "+
				"`go run ./cmd/macedon gen -pkg %s -o internal/overlays/%s/%s.go specs/%s`",
				c.pkg, c.pkg, c.pkg, c.pkg, c.spec)
		}
	}
}

// TestBufferFieldsDecodeWithoutCopy: a `buffer` field decodes to a view of
// the frame. Delivered frames are immutable and the receiver's to keep
// (docs/architecture.md), so the copy the generator used to emit bought
// nothing and cost an allocation per message.
func TestBufferFieldsDecodeWithoutCopy(t *testing.T) {
	views := 0
	for _, c := range fullyTranslated {
		res, err := Generate(loadSpec(t, c.spec), c.pkg)
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		if strings.Contains(res.Source, "append([]byte(nil), r.Bytes32()") {
			t.Errorf("%s: generated decoder copies a buffer field", c.spec)
		}
		views += strings.Count(res.Source, " = r.Bytes32()\n")
	}
	if views == 0 {
		t.Fatal("no generated decoder reads a buffer field: the check above is vacuous")
	}
}

// TestOpaqueStatementsBecomeTODOs checks the preservation path.
func TestOpaqueStatementsBecomeTODOs(t *testing.T) {
	spec, err := dsl.Parse(`
protocol p
transports { UDP u; }
messages { u m { int x; } }
transitions { any recv m { some_c_function(a, b); } }
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Generate(spec, "genp")
	if err != nil {
		t.Fatal(err)
	}
	if res.Opaque != 1 {
		t.Fatalf("opaque = %d", res.Opaque)
	}
	if !strings.Contains(res.Source, "TODO(macedon)") {
		t.Fatal("missing TODO marker")
	}
}

// TestUnknownLibraryCallsDegrade checks that library calls outside the
// subset degrade to TODO comments wherever they appear — as a statement, as
// an assignment source, or as a condition — instead of failing generation.
func TestUnknownLibraryCallsDegrade(t *testing.T) {
	spec, err := dsl.Parse(`
protocol p
transports { UDP u; }
messages { u m { int x; } }
auxiliary_data { int count; }
transitions {
  any recv m {
    frobnicate(from, 3);
    count = mystery_metric(from);
    if (exotic_check(count)) { count = 0; }
    count = list_size();
    neighbor_size(1 + 2);
  }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Generate(spec, "genp")
	if err != nil {
		t.Fatal(err)
	}
	if res.Opaque != 5 {
		t.Fatalf("opaque = %d, want 5", res.Opaque)
	}
	if n := strings.Count(res.Source, "TODO(macedon)"); n != 5 {
		t.Fatalf("TODO markers = %d, want 5", n)
	}
}

// TestCollectionPrimitivesTranslate checks the indexed-collection subset:
// nodeset lists, nodetables, keymaps, locals, and return.
func TestCollectionPrimitivesTranslate(t *testing.T) {
	spec, err := dsl.Parse(`
protocol p
constants { N = 16; }
transports { UDP u; }
messages { u m { key k; nodeset others; } }
auxiliary_data {
  nodeset ring;
  nodetable table N;
  keymap cache;
}
transitions {
  any recv m {
    node best;
    best = list_get(ring, 0);
    if (best == nil_node) {
      return;
    }
    foreach (x in field(others)) {
      ring_insert(ring, x, 4);
      table_put(table, shared_prefix(self_key, hash(x), 4) * 2, x);
    }
    map_put(cache, field(k), best);
    list_trunc(ring, 8);
  }
  any API error {
    list_remove(ring, failed);
    table_remove(table, failed);
    map_remove_value(cache, failed);
  }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Generate(spec, "genp")
	if err != nil {
		t.Fatal(err)
	}
	if res.Opaque != 0 {
		t.Fatalf("opaque = %d: %s", res.Opaque, res.Source)
	}
	for _, want := range []string{
		"Table [16]overlay.Address",
		"Cache map[overlay.Key]overlay.Address",
		"a.Cache = make(map[overlay.Key]overlay.Address)",
		"ringInsert(ctx.SelfKey(), ctx.Self(), a.Ring, x, 4)",
		"tablePut(a.Table[:]",
		"mapRemoveValue(a.Cache, call.Failed)",
		"for _, x := range m.Others {",
	} {
		if !strings.Contains(res.Source, want) {
			t.Errorf("generated source missing %q", want)
		}
	}
	if _, err := format.Source([]byte(res.Source)); err != nil {
		t.Fatalf("generated source does not format: %v", err)
	}
}

// TestGenerateErrors exercises translator diagnostics.
func TestGenerateErrors(t *testing.T) {
	bad := []string{
		// assignment to undeclared variable
		`protocol p transports { UDP u; } messages { u m { } } transitions { any recv m { zz = 1; } }`,
		// send with unknown field
		`protocol p transports { UDP u; } messages { u m { int x; } } transitions { any recv m { send m(from, nope = 1); } }`,
		// field() of unknown field
		`protocol p transports { UDP u; } messages { u m { int x; } } transitions { any recv m { if (field(nope) == 1) { } } }`,
	}
	for i, src := range bad {
		spec, err := dsl.Parse(src)
		if err != nil {
			t.Fatalf("case %d should parse: %v", i, err)
		}
		if _, err := Generate(spec, "genp"); err == nil {
			t.Errorf("case %d: expected generation error", i)
		}
	}
}
