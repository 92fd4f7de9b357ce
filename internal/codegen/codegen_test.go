package codegen

import (
	"errors"
	"go/ast"
	"go/format"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"macedon/internal/core"
	"macedon/internal/dsl"
	"macedon/internal/overlay"
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
		"int": "int32", "short": "int32", "time": "int64", "double": "float64", "key": "overlay.Key",
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
		res, err := Generate(spec, spec.Name)
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

// TestComputedPeriodAndRandomTypeCheck: a timer period computed from an int
// variable is converted to a Duration before it is scaled, a literal or
// constant period is left as is, and random(n) yields an int. Parsing alone
// cannot tell int32 × Duration from valid Go, so the output is type-checked.
func TestComputedPeriodAndRandomTypeCheck(t *testing.T) {
	spec, err := dsl.Parse(`
protocol p
addressing ip
constants { MS = 250; N = 8; }
transports { UDP u; }
messages { u m { int x; } }
auxiliary_data { int period; timer tick MS; }
transitions {
  any recv m {
    period = random(N) + random(field(x) + 1);
    timer_sched(tick, period);
    timer_resched(tick, period * 2);
    timer_sched(tick, MS);
    timer_sched(tick, 500);
  }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Generate(spec, "p")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`ctx.TimerSched("tick", time.Duration(a.Period)*time.Millisecond)`,
		`ctx.TimerResched("tick", time.Duration((a.Period * 2))*time.Millisecond)`,
		`ctx.TimerSched("tick", 250*time.Millisecond)`,
		`ctx.TimerSched("tick", 500*time.Millisecond)`,
		`int32(ctx.Rand().Intn(8))`,
		`int32(ctx.Rand().Intn(int((m.X + 1))))`,
	} {
		if !strings.Contains(res.Source, want) {
			t.Errorf("generated source lacks %s:\n%s", want, res.Source)
		}
	}
	typeCheck(t, res.Source)
}

// typeCheck fails the test unless src, a generated package p, parses
// and type-checks against the engine's packages.
func typeCheck(t *testing.T, src string) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	if _, err := conf.Check("p", fset, []*ast.File{f}, nil); err != nil {
		t.Fatalf("generated source does not type-check: %v\n%s", err, src)
	}
}

// TestSpecNamesBecomeValidGo: whatever a spec names its variables and
// however it writes a decimal number, the generated package compiles. Locals
// and loop variables named like a Go keyword, a predeclared identifier or a
// handler's own binding are renamed; state names that are "_" or start with
// a letter without case are prefixed; 08 is decimal, as Validate reads it.
func TestSpecNamesBecomeValidGo(t *testing.T) {
	spec, err := dsl.Parse(`
protocol p
addressing ip
constants { N = 010; }
transports { UDP u; }
messages { u m { int x; } }
auxiliary_data { int _; int énergie; int 日; nodeset s; nodetable t N; }
transitions {
  any recv m {
    int type = 08;
    int ctx = type + N;
    int len = ctx;
    foreach (m in s) { table_put(t, len, m); }
    _ = len;
    énergie = 1;
    日 = 2;
  }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Generate(spec, "p")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"var type_ int32 = 8\n",
		"var ctx_ int32 = (type_ + 10)\n",
		"for _, m_ := range a.S {\n",
		"T [10]overlay.Address\n",
		"a.X = len_\n",
		"a.Énergie = 1\n",
		"a.X日 = 2\n",
	} {
		if !strings.Contains(res.Source, want) {
			t.Errorf("generated source lacks %q", want)
		}
	}
	typeCheck(t, res.Source)
}

// TestForeachWithoutReadsBuilds: a foreach whose body never reads its loop
// variable — an empty body, one that only counts, a loop over range(), an
// outer loop only its inner loop's body reads nothing of — ranges without
// one, which Go would reject as declared and not used. A loop that reads
// its variable keeps it.
func TestForeachWithoutReadsBuilds(t *testing.T) {
	spec, err := dsl.Parse(`
protocol p
neighbor_types { kids_t 4 { } }
transports { UDP u; }
messages { u m { int x; } }
auxiliary_data { int n; nodeset s; kids_t kids; }
transitions {
  any recv m {
    foreach (a in kids) { }
    foreach (b in s) { n = n + 1; }
    foreach (i in range(3)) { n = n + 1; }
    foreach (c in kids) { foreach (d in s) { n = n + 1; } }
    foreach (e in s) { foreach (f in kids) { if (e == f) { n = 0; } } }
    foreach (g in kids) { foreach (g in s) { n = n + 1; } if (g == self) { n = 2; } }
    foreach (h in kids) { foreach (h in s) { if (h == self) { n = 3; } } }
  }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Generate(spec, "p")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"\tfor range ctx.Neighbors(\"kids\").Addrs() {\n\t}\n",
		"\tfor range a.S {\n\t\ta.N = (a.N + 1)\n",
		"\tfor range int32(3) {\n",
		"\tfor range ctx.Neighbors(\"kids\").Addrs() {\n\t\tfor range a.S {\n",
		"\tfor _, e := range a.S {\n\t\tfor _, f := range ctx.Neighbors(\"kids\").Addrs() {\n",
		"\tfor _, g := range ctx.Neighbors(\"kids\").Addrs() {\n\t\tfor range a.S {\n",
		"\tfor range ctx.Neighbors(\"kids\").Addrs() {\n\t\tfor _, h := range a.S {\n",
	} {
		if !strings.Contains(res.Source, want) {
			t.Errorf("generated source lacks %q:\n%s", want, res.Source)
		}
	}
	typeCheck(t, res.Source)
}

// bundled is every spec under specs/ and the package its code is committed
// in: internal/overlays/<protocol>.
type bundled struct{ spec, pkg string }

func bundledSpecs(t *testing.T) []bundled {
	t.Helper()
	paths, err := repo.Specs()
	if err != nil || len(paths) == 0 {
		t.Fatalf("no specs: %v", err)
	}
	var out []bundled
	for _, path := range paths {
		name := filepath.Base(path)
		out = append(out, bundled{name, loadSpec(t, name).Name})
	}
	return out
}

// TestFullyTranslatedSpecs proves the action-language subset covers every
// spec under specs/: each generates without error and carries no TODO
// fallback in its source.
func TestFullyTranslatedSpecs(t *testing.T) {
	for _, c := range bundledSpecs(t) {
		res, err := Generate(loadSpec(t, c.spec), c.pkg)
		if err != nil {
			t.Errorf("%s: %v", c.spec, err)
			continue
		}
		if strings.Contains(res.Source, "TODO(macedon)") {
			t.Errorf("%s output contains TODO fallbacks", c.spec)
		}
	}
}

// TestCheckedInGeneratedPackagesAreFresh regenerates the package of every
// spec under specs/, and the registry over all of them, in process and
// compares each byte for byte with the tree, so tier-1 catches a spec that no
// longer translates, a hand edit or a forgotten regeneration: the generator
// and its outputs can never drift apart. Every other file under
// internal/overlays, its top level included, must be a test, so a protocol
// or a stack written by hand beside the generated ones fails here too.
func TestCheckedInGeneratedPackagesAreFresh(t *testing.T) {
	const regen = "`go run ./cmd/macedon gen -o internal/overlays specs/*.mac`"
	fresh := func(rel, src string) {
		t.Helper()
		formatted, err := format.Source([]byte(src))
		if err != nil {
			t.Fatalf("%s: generated source does not format: %v", rel, err)
		}
		committed, err := os.ReadFile(repo.Path("internal", "overlays", rel))
		if err != nil {
			t.Fatal(err)
		}
		if string(committed) != string(formatted) {
			t.Errorf("internal/overlays/%s differs from the generator's output (never edit it by hand): run %s", rel, regen)
		}
	}
	generated := map[string]bool{"overlays.go": true}
	var specs []*dsl.Spec
	for _, c := range bundledSpecs(t) {
		rel := filepath.Join(c.pkg, c.pkg+".go")
		generated[rel] = true
		spec := loadSpec(t, c.spec)
		specs = append(specs, spec)
		res, err := Generate(spec, c.pkg)
		if err != nil {
			t.Errorf("%s: %v", c.spec, err)
			continue
		}
		fresh(rel, res.Source)
	}
	for i, err := range CheckLayering(specs) {
		if err != nil {
			t.Fatalf("%s: %v", bundledSpecs(t)[i].spec, err)
		}
	}
	fresh("overlays.go", Registry(specs, "macedon/internal/overlays"))
	root := repo.Path("internal", "overlays")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if !generated[rel] && !strings.HasSuffix(rel, "_test.go") {
			t.Errorf("internal/overlays/%s is neither generated from a spec nor a test: "+
				"a protocol is written as a spec under specs/ and generated", rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBufferFieldsDecodeWithoutCopy: a `buffer` field decodes to a view of
// the frame. A delivered frame is lent until its event chain ends
// (docs/architecture.md), and a generated transition uses a received buffer
// only within the chain — it forwards, delivers or drops it — so a copy
// would buy nothing and cost an allocation per message.
func TestBufferFieldsDecodeWithoutCopy(t *testing.T) {
	views := 0
	for _, c := range bundledSpecs(t) {
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

// TestBufferStateVariableOwnsItsBytes: storing a received buffer field into
// a state variable copies it, because the field is a view of a frame that is
// lent only for the transition; a local keeps the view.
func TestBufferStateVariableOwnsItsBytes(t *testing.T) {
	spec, err := dsl.Parse(`
protocol p
transports { UDP u; }
messages { u m { buffer payload; } }
auxiliary_data { buffer last; }
transitions { any recv m { buffer b = field(payload); last = field(payload); last = b; } }
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Generate(spec, "p")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"var b []byte = m.Payload\n",
		"a.Last = append(a.Last[:0], m.Payload...)\n",
		"a.Last = append(a.Last[:0], b...)\n",
	} {
		if !strings.Contains(res.Source, want) {
			t.Errorf("generated source lacks %q:\n%s", want, res.Source)
		}
	}
}

// TestRandOnlyWhereSpecDraws: generated code mentions the node PRNG only
// where the spec draws, so the engine never builds it for a spec that does
// not. A spec that reads neighbor_first but never neighbor_random calls
// core.NeighborFirst and never ctx.Rand(). Generated Chord draws only
// through random(), in its adaptive mode.
func TestRandOnlyWhereSpecDraws(t *testing.T) {
	spec, err := dsl.Parse(`
protocol p
addressing ip
transports { UDP u; }
neighbor_types { parent_t 1 { } }
messages { u m { int x; } }
auxiliary_data { parent_t parent; }
transitions { any recv m { send m(neighbor_first(parent), x = field(x)); } }
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Generate(spec, "p")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Source, `ctx.Send(core.NeighborFirst(ctx, "parent"), `) {
		t.Errorf("neighbor_first does not call core.NeighborFirst:\n%s", res.Source)
	}
	if strings.Contains(res.Source, "ctx.Rand()") {
		t.Errorf("generated source mentions ctx.Rand(), but the spec never draws:\n%s", res.Source)
	}
	chord, err := Generate(loadSpec(t, "chord.mac"), "chord")
	if err != nil {
		t.Fatal(err)
	}
	// chord.mac draws only in lsd's adaptive mode: a static ring never does.
	draw := regexp.MustCompile(`if \(?a\.FixAdaptive != 0\)? \{\s*a\.NextFinger = int32\(ctx\.Rand\(\)\.Intn\(32\)\)`)
	if n := strings.Count(chord.Source, "ctx.Rand()"); n != 1 || !draw.MatchString(chord.Source) {
		t.Errorf("generated Chord mentions ctx.Rand %d times; want once, behind fix_adaptive", n)
	}
}

// TestForwardUpcallBindsRewrite: the payload a forward_upcall returns
// replaces its payload argument for the rest of the block, and only there —
// each loop iteration offers the original again, a later upcall sees the
// earlier one's rewrite, and an upcall whose payload is never named again
// still compiles.
func TestForwardUpcallBindsRewrite(t *testing.T) {
	spec, err := dsl.Parse(`
protocol p
addressing ip
transports { TCP t; }
neighbor_types { kids_t 4 { } }
messages { t m { int typ; buffer payload; } }
auxiliary_data { fail_detect kids_t kids; }
transitions {
  any recv m {
    foreach (k in kids) {
      forward_upcall(field(payload), field(typ), k);
      send m(k, typ = field(typ), payload = field(payload));
    }
    forward_upcall(field(payload), field(typ), from);
    forward_upcall(field(payload), field(typ), from);
    deliver(field(payload), field(typ), from);
  }
  any API multicast {
    forward_upcall(payload, payload_type, self);
  }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Generate(spec, "p")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parser.ParseFile(token.NewFileSet(), "p.go", res.Source, 0); err != nil {
		t.Fatalf("generated source does not parse: %v", err)
	}
	for _, want := range []string{
		"\t\tfwOk, _, fwPayload := ctx.Forward(m.Payload, m.Typ, k, overlay.HashAddress(k))\n\t\tif !fwOk {\n\t\t\treturn\n\t\t}\n",
		"msgM{Typ: m.Typ, Payload: fwPayload}",
		"\tfwOk, _, fwPayload2 := ctx.Forward(m.Payload, m.Typ, ev.From, overlay.HashAddress(ev.From))\n",
		"\tfwOk, _, fwPayload3 := ctx.Forward(fwPayload2, m.Typ, ev.From, overlay.HashAddress(ev.From))\n",
		"\tctx.Deliver(fwPayload3, m.Typ, ev.From)\n",
	} {
		if !strings.Contains(res.Source, want) {
			t.Errorf("generated source lacks %q:\n%s", want, res.Source)
		}
	}
}

// TestOpaqueStatementsBecomeTODOs checks what became of the statement
// preservation path: a statement outside the subset once turned into a TODO
// comment in otherwise compiling code; now it fails generation at its line
// and column, and no source comes back to be mistaken for a working agent.
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
	res, err := Generate(spec, "p")
	const want = `5:28: unknown primitive statement "some_c_function"`
	if err == nil || err.Error() != want {
		t.Fatalf("error %v, want %s", err, want)
	}
	if res != nil {
		t.Fatalf("failed generation returned source:\n%s", res.Source)
	}
}

// TestUnknownLibraryCallsDegrade: several library calls outside the subset
// in one transition, in every position a call can take, once degraded to as
// many TODO comments. Generation now stops at the first of them, reports its
// position, and returns no partial source.
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
	res, err := Generate(spec, "p")
	const want = `8:5: unknown primitive statement "frobnicate"`
	if err == nil || err.Error() != want {
		t.Fatalf("error %v, want %s", err, want)
	}
	if res != nil {
		t.Fatalf("failed generation returned source:\n%s", res.Source)
	}
}

// TestUnknownLibraryCallsAreErrors: a library call outside the subset is an
// error at its statement's line and column wherever it appears — as a
// statement, as an assignment source, as a condition — and so is a
// primitive called without its collection.
func TestUnknownLibraryCallsAreErrors(t *testing.T) {
	for _, c := range []struct{ stmt, want string }{
		{"frobnicate(from, 3);", `8:5: unknown primitive statement "frobnicate"`},
		{"count = mystery_metric(from);", `8:5: unknown primitive "mystery_metric"`},
		{"if (exotic_check(count)) { count = 0; }", `8:5: unknown primitive "exotic_check"`},
		{"if (count > 0) {\n      count = list_size();\n    }", `9:7: list_size takes 1 arguments, not 0`},
		{"neighbor_size(1 + 2);", `8:5: unknown primitive statement "neighbor_size"`},
	} {
		spec, err := dsl.Parse(`
protocol p
transports { UDP u; }
messages { u m { int x; } }
auxiliary_data { int count; }
transitions {
  any recv m {
    ` + c.stmt + `
  }
}
`)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Generate(spec, "p"); err == nil || err.Error() != c.want {
			t.Errorf("%s: error %v, want %s", c.stmt, err, c.want)
		}
	}
}

// collectionSpec exercises the indexed-collection subset — nodeset lists,
// nodetables, keymaps, locals, and return — and every way a nodeset value is
// stored: from another variable, from a received field, appended to on both
// sides afterwards, and rewritten inside a foreach over itself.
const collectionSpec = `
protocol p
constants { N = 16; }
transports { UDP u; }
messages { u m { key k; nodeset others; } }
auxiliary_data {
  nodeset ring;
  nodeset backup;
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
    backup = ring;
    list_append(ring, from);
    list_append(backup, best);
    foreach (y in backup) {
      if (y == from) {
        list_clear(backup);
      }
      list_append(backup, y);
    }
    foreach (z in ring) {
      list_append(ring, hash(z));
    }
    ring = field(others);
  }
  any API error {
    list_remove(ring, failed);
    table_remove(table, failed);
    map_remove_value(cache, failed);
    map_clear(cache);
  }
}
`

func generateCollectionSpec(t *testing.T) *Result {
	t.Helper()
	spec, err := dsl.Parse(collectionSpec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Generate(spec, "p")
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCollectionPrimitivesTranslate checks the indexed-collection subset.
func TestCollectionPrimitivesTranslate(t *testing.T) {
	res := generateCollectionSpec(t)
	for _, want := range []string{
		"Table [16]overlay.Address",
		"Cache map[overlay.Key]overlay.Address",
		"core.MapPut(&a.Cache, m.K, best)\n", // makes the map on first put
		"clear(a.Cache)\n",
		"return func() core.Agent { return &Agent{} }",
		"core.RingInsert(ctx.SelfKey(), ctx.Self(), a.Ring, x, 4)",
		"core.TablePut(a.Table[:], (int32((ctx.SelfKey()).SharedPrefix(overlay.HashAddress(x), 4)) * 2), x)",
		"core.MapRemoveValue(a.Cache, call.Failed)",
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

// TestListOwnership: list_append and list_clear work in place, which is exact
// only while no two nodeset variables share an array. The emitted source must
// copy at every store of a list value and range over a copy where the body
// rewrites the list it ranges over; core's list primitives, run under that
// discipline, must then be indistinguishable from ones that copy on every
// operation.
func TestListOwnership(t *testing.T) {
	src := generateCollectionSpec(t).Source
	for _, want := range []string{
		"a.Backup = append(a.Backup[:0], a.Ring...)\n",                      // variable to variable
		"a.Ring = append(a.Ring[:0], m.Others...)\n",                        // received field into state
		"for _, y := range append([]overlay.Address(nil), a.Backup...) {\n", // body clears what it ranges over
		"for _, z := range a.Ring {\n",                                      // body only appends
		"a.Backup = a.Backup[:0]\n",
		"a.Ring = core.ListAppend(a.Ring, ev.From)\n",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated source missing %q", want)
		}
	}
	if strings.Contains(src, "a.Backup = a.Ring\n") || strings.Contains(src, " = nil\n") {
		t.Error("generated source aliases or drops a nodeset's array")
	}

	// Three variables under seeded operation sequences: the emitted forms
	// against a reference that builds a fresh slice every time.
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var got, want [3][]overlay.Address
		for step := 0; step < 300; step++ {
			i, j := rng.Intn(3), rng.Intn(3)
			a := overlay.Address(rng.Intn(10)) // 0 is NilAddress
			n := int32(rng.Intn(6))
			switch op := rng.Intn(7); op {
			case 0, 1:
				got[i] = core.ListAppend(got[i], a)
				if a != overlay.NilAddress && !slices.Contains(want[i], a) {
					want[i] = append(slices.Clone(want[i]), a)
				}
			case 2:
				got[i] = core.ListPrepend(got[i], a)
				if a != overlay.NilAddress {
					want[i] = append([]overlay.Address{a}, slices.DeleteFunc(slices.Clone(want[i]), func(x overlay.Address) bool { return x == a })...)
				}
			case 3:
				got[i] = core.ListRemove(got[i], a)
				want[i] = slices.DeleteFunc(slices.Clone(want[i]), func(x overlay.Address) bool { return x == a })
			case 4:
				got[i] = core.ListTrunc(got[i], n)
				want[i] = slices.Clone(want[i][:min(int(n), len(want[i]))])
			case 5:
				got[i] = got[i][:0] // list_clear
				want[i] = nil
			case 6:
				got[i] = append(got[i][:0], got[j]...) // L = M
				want[i] = slices.Clone(want[j])
			}
			for v := range got {
				if !slices.Equal(got[v], want[v]) {
					t.Fatalf("seed %d step %d: variable %d is %v, want %v", seed, step, v, got[v], want[v])
				}
				if core.ListGet(got[v], n) != core.ListGet(want[v], n) {
					t.Fatalf("seed %d step %d: reads of variable %d disagree", seed, step, v)
				}
			}
		}
	}
}

// TestSendAndFactoryUseScratch: a generated package allocates a message only
// where the engine asks for a receive slot. The agent is core.TypeDefined and
// its Define has no receiver to read, so one Def serves every instance; each
// factory returns a fresh message, made once per instance for the engine's
// receive slot of its type, into whose nodeset arrays the decoder appends;
// send statements fill the agent's send slots; and the scratch type is opaque
// to checkpoints.
func TestSendAndFactoryUseScratch(t *testing.T) {
	literal := regexp.MustCompile(`&msg[A-Z][A-Za-z]*\{`)
	sends, kept := 0, 0
	for _, c := range bundledSpecs(t) {
		spec := loadSpec(t, c.spec)
		res, err := Generate(spec, c.pkg)
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		if n := len(literal.FindAllString(res.Source, -1)); n != len(spec.Messages) {
			t.Errorf("%s: %d message literals for %d factories: something else allocates a message", c.spec, n, len(spec.Messages))
		}
		for _, want := range []string{
			"func (*Agent) DefinedByType() {}\n",
			"func (*Agent) Define(d *core.Def) {\n",
			"type msgScratch struct{ tx msgSlots }\n",
			"func (*msgScratch) StateCopyOpaque() {}\n",
			"\tio msgScratch //",
		} {
			if !strings.Contains(res.Source, want) {
				t.Errorf("%s: generated source missing %q", c.spec, want)
			}
		}
		if strings.Contains(res.Source, "a.io.rx") {
			t.Errorf("%s: generated source keeps a receive slot of its own", c.spec)
		}
		for _, m := range spec.Messages {
			for _, f := range m.Fields {
				if f.Type == "nodeset" {
					if want := "m." + camel(f.Name) + " = r.AppendAddrs(m." + camel(f.Name) + "[:0])\n"; !strings.Contains(res.Source, want) {
						t.Errorf("%s: %s.%s is not decoded as %q", c.spec, m.Name, f.Name, want)
					}
					kept++
				}
			}
			if want := "func() overlay.Message { return &" + msgTypeName(m.Name) + "{} }"; !strings.Contains(res.Source, want) {
				t.Errorf("%s: factory of %q is not %q", c.spec, m.Name, want)
			}
		}
		// Every handler is a method expression behind a core adapter.
		if n, want := strings.Count(res.Source, "Of((*Agent).transition"), len(spec.Transitions); n != want {
			t.Errorf("%s: %d handlers registered through core.RecvOf/TimerOf/APIOf, want %d", c.spec, n, want)
		}
		if strings.Contains(res.Source, "r.Addrs()") {
			t.Errorf("%s: a generated decoder allocates a nodeset", c.spec)
		}
		// One form: the message is built in its send slot inside the call, so
		// the destination is evaluated before the fields. A message sent
		// through the layer below (route, multicast, collect) is built the
		// same way.
		n := strings.Count(res.Source, "ctx.Send(") + strings.Count(res.Source, "core.RouteMsg(ctx, ") +
			strings.Count(res.Source, "core.MulticastMsg(ctx, ") + strings.Count(res.Source, "core.CollectMsg(ctx, ")
		// A slot handed to the action library, which sends the cluster views
		// a change owes, is the other use.
		lent := strings.Count(res.Source, ", &a.io.tx.")
		if n != strings.Count(res.Source, ", core.Put(&a.io.tx.") || strings.Count(res.Source, "a.io.tx.") != n+lent {
			t.Errorf("%s: %d sends, but not as many core.Put(&a.io.tx.…) arguments", c.spec, n)
		}
		sends += n
	}
	if sends == 0 || kept == 0 {
		t.Fatalf("%d generated sends, %d nodeset fields: the checks above are vacuous", sends, kept)
	}
}

// TestGenerateErrors exercises translator diagnostics: each is a *dsl.Error
// at its statement's position. The cases from "log statement on another
// message's log" to "notified arity" are the body checks dsl.Validate made
// before codegen made them, with their messages; the randtree probes are
// the edits `macedon check` once accepted.
func TestGenerateErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"assignment to an undeclared variable",
			`protocol p transports { UDP u; } messages { u m { } } transitions { any recv m { zz = 1; } }`,
			"1:82: assignment to undeclared variable \"zz\""},
		{"send with an unknown field",
			`protocol p transports { UDP u; } messages { u m { int x; } } transitions { any recv m { send m(from, nope = 1); } }`,
			"message \"m\" has no field \"nope\""},
		{"send setting a field twice",
			`protocol p transports { UDP u; } messages { u m { int x; } } transitions { any recv m { send m(from, x = 1, x = 2); } }`,
			"message \"m\" field \"x\" set twice"},
		{"field() of an unknown field",
			`protocol p transports { UDP u; } messages { u m { int x; } } transitions { any recv m { if (field(nope) == 1) { } } }`,
			"message \"m\" has no field \"nope\""},
		{"field() of two names",
			`protocol p transports { UDP u; } messages { u m { int x; } } transitions { any recv m { if (field(x, x) == 1) { } } }`,
			"field takes 1 arguments, not 2"},
		{"log statement on another message's log",
			`protocol p transports { UDP u; } messages { u m { } u d { } } auxiliary_data { log m l 4; }
			 transitions { any recv d { log d(l); } }`,
			"\"l\" is not a declared log of d"},
		{"log_replay of a non-log",
			`protocol p transports { UDP u; } messages { u m { } } auxiliary_data { node n; }
			 transitions { any recv m { log_replay(n, from, 0); } }`,
			"log_replay of \"n\", which is not a declared log"},
		{"clock primitive arity",
			`protocol p transports { UDP u; } messages { u m { } } auxiliary_data { time t; }
			 transitions { any recv m { t = now(t); } }`,
			"now takes 0 arguments, not 1"},
		{"block primitive arity",
			`protocol p uses q messages { m { } } auxiliary_data { blocks b; }
			 transitions { any recv m { if (block_put(b, 1, 2)) { } } }`,
			"block_put takes 5 arguments, not 3"},
		{"block primitive on a non-store",
			`protocol p uses q messages { m { } } auxiliary_data { blocks b; nodeset s; }
			 transitions { any recv m { block_reset(s, 2048, 3); } }`,
			"block_reset of s, which is not a declared blocks variable"},
		{"sample arity",
			`protocol p uses q messages { m { tickets c; } }
			 transitions { any recv m { sample(field(c)); } }`,
			"sample takes 2 arguments, not 1"},
		{"cluster primitive on a non-table",
			`protocol p uses q messages { m { } } auxiliary_data { blocks b; int n; }
			 transitions { any recv m { n = cluster_layers(b); } }`,
			"cluster_layers of b, which is not a declared clusters variable"},
		{"cluster views in a message of another shape",
			`protocol p uses q messages { m { } v { int layer; node leader; nodeset members; } }
			 auxiliary_data { clusters c; } transitions { any recv m { cluster_announce(c, v, 0); } }`,
			"cluster_announce sends views in v, which is not a declared message"},
		{"in_state of an undeclared state",
			`protocol p uses q states { a; } messages { m { } } auxiliary_data { bool b; }
			 transitions { any recv m { b = in_state(flying); } }`,
			"in_state of flying, which is not a declared state"},
		{"notified arity",
			`protocol p uses q messages { m { } } auxiliary_data { bool b; }
			 transitions { any API notify { b = notified(child, parent); } }`,
			"notified takes 1 arguments, not 2"},
		{"statement primitive with an extra argument",
			`protocol p transports { UDP u; } messages { u m { } } neighbor_types { k 2 { } } auxiliary_data { k kids; }
			 transitions { any recv m { neighbor_clear(kids, from); } }`,
			"neighbor_clear takes 1 arguments, not 2"},
		{"upcall_ext with an extra argument",
			`protocol p uses q transitions { any API route { upcall_ext(1, payload, 3); } }`,
			"upcall_ext takes 2 arguments, not 3"},
		{"timer_cancel of an undeclared timer",
			`protocol p transports { UDP u; } messages { u m { } } transitions { any recv m { timer_cancel(t); } }`,
			"timer_cancel of t, which is not a declared timer"},
		{"timer_resched of a variable that is not a timer",
			`protocol p transports { UDP u; } messages { u m { } } auxiliary_data { int t; }
			 transitions { any recv m { timer_resched(t, 10); } }`,
			"timer_resched of t, which is not a declared timer"},
		{"timer_sched with no period of a timer that declares none",
			`protocol p transports { UDP u; } messages { u m { } } auxiliary_data { timer t; }
			 transitions { any recv m { timer_sched(t); } }`,
			"timer_sched of t needs a period: the timer declares none"},
		{"a local declared twice in one block",
			`protocol p transports { UDP u; } messages { u m { } } transitions { any recv m { int a; if (true) { int a; } int a; } }`,
			"local \"a\" declared twice in its block"},
		{"in_state arity",
			`protocol p uses q states { a; } messages { m { } } auxiliary_data { bool b; }
			 transitions { any recv m { b = in_state(); } }`,
			"in_state takes 1 arguments, not 0"},
		{"notify of an unknown neighbor kind",
			`protocol p transports { UDP u; } messages { u m { } } neighbor_types { k 2 { } } auxiliary_data { k kids; }
			 transitions { any recv m { notify(kid, kids); } }`,
			"notify of kid, which is not a neighbor kind"},
		{"payload outside an API transition",
			`protocol p uses q messages { m { buffer b; } } transitions { any recv m { send m(from, b = payload); } }`,
			"payload outside an API transition"},
		{"quash outside a message transition",
			`protocol p uses q messages { m { } } transitions { any API route { quash(); } }`,
			"quash outside a recv or forward transition"},
		{"notified outside an API transition",
			`protocol p uses q messages { m { } } auxiliary_data { bool b; }
			 transitions { any recv m { b = notified(child); } }`,
			"notified outside an API transition"},
	}
	for _, c := range cases {
		spec, err := dsl.Parse(c.src)
		if err != nil {
			t.Fatalf("%s should parse: %v", c.name, err)
		}
		checkGenerateError(t, c.name, spec, c.want)
	}
	for _, p := range repo.RandtreeProbes {
		src, err := p.Apply()
		if err != nil {
			t.Fatal(err)
		}
		spec, err := dsl.Parse(src)
		if err != nil {
			t.Fatalf("probe %s should parse: %v", p.New, err)
		}
		checkGenerateError(t, p.New, spec, p.Err)
	}
}

// checkGenerateError checks that Generate fails on spec with a *dsl.Error
// that has a position and whose text has want in it.
func checkGenerateError(t *testing.T, name string, spec *dsl.Spec, want string) {
	t.Helper()
	res, err := Generate(spec, "p")
	var perr *dsl.Error
	switch {
	case err == nil:
		t.Errorf("%s: generated, want error %q", name, want)
	case !errors.As(err, &perr) || perr.Pos.Line < 1 || perr.Pos.Col < 1:
		t.Errorf("%s: error %v carries no position", name, err)
	case !strings.Contains(err.Error(), want):
		t.Errorf("%s: error %q does not mention %q", name, err, want)
	case res != nil:
		t.Errorf("%s: failed generation returned source", name)
	}
}

// TestLayeredConstructsTranslate: the constructs Scribe and SplitStream use
// translate into code that type-checks: keytable reads, writes and
// tallies, field assignment, the route and multicast message forms, the
// downcalls, a counted loop and the stripe-key expression.
func TestLayeredConstructsTranslate(t *testing.T) {
	spec, err := dsl.Parse(`
protocol p uses pastry
messages { j { key group; node joiner; nodeset seen; } }
auxiliary_data { keytable t { bool on; node parent; int n; tally kids; } keymap m; int k; timer t1; }
transitions {
  any forward j {
    t[field(group)].parent = from;
    t[field(group)].on = !t[field(group)].on || false;
    tally_heard(t[field(group)].kids, from);
    tally_tick(t[field(group)].kids, 3);
    tally_remove(t[field(group)].kids, self);
    notify(child, t[field(group)].kids);
    notify(parent, from);
    list_append(field(seen), self);
    field(joiner) = self;
    if (list_size(t[field(group)].kids) > map_size(m)) { upcall_ext(7, field(seen)); }
    route j(field(group), group = field(group), seen = field(seen));
  }
  any API join {
    timer_sched(t1, k / 2, k);
    foreach (i in range(k)) {
      join_group(with_digit(group, 0, 4, i));
      multicast j(with_digit(group, 0, 4, i), group = group);
    }
    create_group(group);
    leave_group(group);
    multicast(group, payload, payload_type, priority);
    route_ip(dest_ip, payload, payload_type, priority);
  }
  any API leave {
    foreach (g in t) {
      t[g].n = t[g].n + 1;
    }
  }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Generate(spec, "p")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"\tT map[overlay.Key]*TEntry\n",
		"core.KeyEntry(&a.T, m.Group).Parent = ev.From\n",
		"core.TallyHeard(&core.KeyEntry(&a.T, m.Group).Kids, ev.From)\n",
		"m.Seen = core.ListAppend(m.Seen, ctx.Self())\n",
		"m.Joiner = ctx.Self()\n",
		"for i := range a.K {\n",
		"ctx.TimerSched(\"t1\", time.Duration((a.K / 2))*time.Millisecond+core.Jitter(ctx, a.K))\n",
		"for _, g := range core.Keys(a.T) {\n",
	} {
		if !strings.Contains(res.Source, want) {
			t.Errorf("generated source missing %q", want)
		}
	}
	typeCheck(t, res.Source)
}

// TestTreeConstructsTranslate: the constructs Overcast and AMMO use
// translate into code that type-checks: keytables keyed by node
// and int, double arithmetic with int operands converted, clock reads and
// differences, a jittered timer period, a send's priority, and a bounded log
// that copies the bytes it keeps.
func TestTreeConstructsTranslate(t *testing.T) {
	spec, err := dsl.Parse(`
protocol p
addressing ip
constants { GAIN = 1.2; }
transports { TCP A; TCP B; }
messages { A m { short n; time at; double bw; buffer payload; } }
auxiliary_data {
  keytable c by node { int seen; double bw; nodeset path; time first; }
  keytable s by int { bool on; }
  log m backlog 64;
  double best;
  timer q 1000;
}
transitions {
  any recv m {
    c[from].first = now();
  }
  any API init {
    timer_resched(q, jitter(1000));
  }
  any recv m [locking read;] {
    c[from].seen = c[from].seen + 1;
    c[from].path = c[from].path;
    double spread = time_diff(now(), c[from].first);
    c[from].bw = (c[from].seen - 1) * 8000 / spread;
    foreach (k in c) {
      if (c[k].bw > best * GAIN) { best = c[k].bw; }
    }
    s[field(n)].on = true;
    foreach (i in s) { if (i > field(n)) { map_del(s, i); } }
    best = time_diff_ms(now(), field(at)) + field(n);
    log m(backlog, n = field(n), at = field(at), payload = field(payload));
    log_replay(backlog, from, B);
    send m(from, n = map_size(s), bw = field(n), payload = zeros(10)) via A;
  }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Generate(spec, "p")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"\tC map[overlay.Address]*CEntry\n",
		"\tS map[int32]*SEntry\n",
		"\tBacklog []msgM\n",
		"core.KeyEntry(&a.C, ev.From).First = ctx.Now().UnixNano()\n",
		"ctx.TimerResched(\"q\", time.Duration(core.Spread(ctx, 1000)))\n",
		"core.ListSet(&core.KeyEntry(&a.C, ev.From).Path, core.KeyRead(a.C, ev.From).Path)\n",
		"var spread float64 = core.Seconds(ctx.Now().UnixNano(), core.KeyRead(a.C, ev.From).First)\n",
		"= (float64(((core.KeyRead(a.C, ev.From).Seen - 1) * 8000)) / spread)\n",
		"(core.KeyRead(a.C, k).Bw > (a.Best * 1.2))",
		"for _, i := range core.Keys(a.S) {\n",
		"delete(a.S, i)\n",
		"a.Best = (core.Millis(ctx.Now().UnixNano(), m.At) + float64(m.N))\n",
		"a.Backlog = core.LogAppend(a.Backlog, msgM{N: m.N, At: m.At, Payload: append([]byte(nil), m.Payload...)}, 64)\n",
		"core.LogReplay(ctx, a.Backlog, ev.From, 1)\n",
		"msgM{N: int32(len(a.S)), Bw: float64(m.N), Payload: make([]byte, 10)}), 0)\n",
		"w.U16(uint16(m.N))\n",
		"m.N = int32(r.U16())\n",
		"w.I64(m.At)\n",
	} {
		if !strings.Contains(res.Source, want) {
			t.Errorf("generated source missing %q", want)
		}
	}
	typeCheck(t, res.Source)
}

// TestKeytableForeachAscending: foreach over a keytable ranges over
// core.Keys, which visits the keys in ascending order whatever order the
// entries were made in.
func TestKeytableForeachAscending(t *testing.T) {
	spec, err := dsl.Parse(`
protocol p uses pastry
messages { j { } }
auxiliary_data { keytable t { int n; } }
transitions { any API leave { foreach (g in t) { t[g].n = 1; } } }
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Generate(spec, "p")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Source, "for _, g := range core.Keys(a.T) {\n") {
		t.Fatalf("foreach over a keytable does not range over core.Keys:\n%s", res.Source)
	}
	type entry struct{ N int32 }
	for seed := int64(1); seed <= 20; seed++ {
		var tbl map[overlay.Key]*entry
		var want []overlay.Key
		for _, i := range rand.New(rand.NewSource(seed)).Perm(30) {
			k := overlay.Key(uint32(i) * 0x9e3779b9)
			core.KeyEntry(&tbl, k).N = 1
			want = append(want, k)
		}
		slices.Sort(want)
		if got := core.Keys(tbl); !slices.Equal(got, want) {
			t.Fatalf("seed %d: foreach visits %v, want %v", seed, got, want)
		}
	}
}
