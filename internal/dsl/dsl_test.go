package dsl

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"macedon/internal/repo"
)

const miniSpec = `
// comment
protocol demo
addressing ip
trace_low
constants { MAX = 4; }
states { joining; joined; }
neighbor_types {
  parent_t 1 { }
  kids_t MAX { double rtt; }
}
transports { UDP BE; TCP REL; SWP WIN; }
messages {
  BE join { }
  REL reply { int code; node who; buffer blob; }
}
auxiliary_data {
  node root;
  int count;
  timer tick 1000;
  fail_detect kids_t kids MAX;
  parent_t parent;
}
transitions {
  init API init { root = bootstrap; state_change(joining); }
  any recv join [locking read;] { send reply(from, code = 1); }
  !(joining|init) recv reply { count = field(code); }
  joined timer tick { timer_sched(tick, 1000); }
  (joining|joined) API error { neighbor_clear(kids); }
}
`

func TestParseMiniSpec(t *testing.T) {
	spec, err := Parse(miniSpec)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "demo" || spec.Addressing != "ip" || spec.Trace != "low" {
		t.Fatalf("headers: %+v", spec)
	}
	if len(spec.States) != 2 || len(spec.Transports) != 3 || len(spec.Messages) != 2 {
		t.Fatalf("sections: states=%d transports=%d messages=%d",
			len(spec.States), len(spec.Transports), len(spec.Messages))
	}
	if len(spec.Transitions) != 5 {
		t.Fatalf("transitions = %d", len(spec.Transitions))
	}
	tr := spec.Transitions[2]
	if tr.Kind != TransRecv || tr.Name != "reply" {
		t.Fatalf("transition 2 = %+v", tr)
	}
	not, ok := tr.Guard.(GuardNot)
	if !ok {
		t.Fatalf("guard = %T", tr.Guard)
	}
	states, ok := not.Inner.(GuardStates)
	if !ok || len(states.States) != 2 || states.States[0] != "joining" {
		t.Fatalf("inner guard = %+v", not.Inner)
	}
	if spec.Transitions[1].Locking != "read" {
		t.Fatal("locking option lost")
	}
	if spec.Transitions[0].Locking != "write" {
		t.Fatal("default locking should be write")
	}
	// Statement shapes.
	body := spec.Transitions[0].Body
	if _, ok := body[0].(*AssignStmt); !ok {
		t.Fatalf("stmt 0 = %T", body[0])
	}
	if cs, ok := body[1].(*CallStmt); !ok || cs.Fn != "state_change" {
		t.Fatalf("stmt 1 = %+v", body[1])
	}
}

func TestParseLayeredSpec(t *testing.T) {
	src := `
protocol mscribe uses pastry
states { running; }
messages { joinmsg { key group; } }
transitions {
  any recv joinmsg { }
  any forward joinmsg { quash(); }
}
`
	spec, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Uses != "pastry" {
		t.Fatalf("uses = %q", spec.Uses)
	}
	if spec.Transitions[1].Kind != TransForward {
		t.Fatal("forward transition lost")
	}
}

// TestUsesBaseParams: a `uses base(name = value, ...)` header sets int params
// of the base, each once, to an int literal or an int constant; a duplicate
// name or a value that is not an int is an error at the param.
func TestUsesBaseParams(t *testing.T) {
	spec, err := Parse("protocol s uses scribe(max_children = 16, refresh = R)\nconstants { R = 250; }\n")
	if err != nil {
		t.Fatal(err)
	}
	want := []Constant{{"max_children", "16", Pos{1, 24}}, {"refresh", "R", Pos{1, 43}}}
	if spec.Uses != "scribe" || spec.UsesPos != (Pos{1, 17}) || !slices.Equal(spec.BaseParams, want) {
		t.Fatalf("uses %q at %v, params %+v", spec.Uses, spec.UsesPos, spec.BaseParams)
	}
	for _, c := range []struct {
		header    string
		line, col int
	}{
		{"uses b(x = 1, x = 2)", 1, 26},
		{"uses b(x = 1.5)", 1, 19},
		{"uses b(x = D)", 1, 19},       // a double constant
		{"uses b(x = y)", 1, 19},       // no such constant
		{"uses b(x = 1 y = 2)", 1, 25}, // a missing comma
		{"uses b(x)", 1, 20},
	} {
		_, err := Parse("protocol s " + c.header + "\nconstants { D = 0.5; }\n")
		var perr *Error
		if !errors.As(err, &perr) {
			t.Errorf("%s: error %v is not positioned", c.header, err)
			continue
		}
		if perr.Pos.Line != c.line || perr.Pos.Col != c.col {
			t.Errorf("%s: error at %v, want %d:%d (%v)", c.header, perr.Pos, c.line, c.col, err)
		}
	}
}

// TestParseLayeredConstructs: a keytable declaration, its entries read and
// written, assignment to a field of the message being handled, and the
// route and multicast forms that send a message through the layer below.
func TestParseLayeredConstructs(t *testing.T) {
	spec, err := Parse(`
protocol s uses pastry
messages { j { key group; node joiner; nodeset seen; } }
auxiliary_data { keytable groups { bool member; node parent; tally children; } }
transitions {
  any forward j {
    groups[field(group)].parent = from;
    field(joiner) = self;
    if (groups[field(group)].member) { route j(field(group), group = field(group)); }
    multicast j(field(group), joiner = self);
    route(dest, payload, payload_type, priority);
  }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	tbl := spec.StateVars[0]
	if tbl.Kind != VarKeyTable || tbl.Name != "groups" || len(tbl.Fields) != 3 || tbl.Fields[2].Type != "tally" {
		t.Fatalf("keytable parsed as %+v", tbl)
	}
	body := spec.Transitions[0].Body
	entry, ok := body[0].(*AssignStmt)
	if !ok || entry.Entry == nil || entry.Entry.String() != "groups[field(group)].parent" {
		t.Fatalf("entry assignment parsed as %#v", body[0])
	}
	if f, ok := body[1].(*AssignStmt); !ok || !f.Field || f.Target != "joiner" {
		t.Fatalf("field assignment parsed as %#v", body[1])
	}
	cond := body[2].(*IfStmt)
	if _, ok := cond.Cond.(EntryExpr); !ok {
		t.Fatalf("entry read parsed as %#v", cond.Cond)
	}
	for i, want := range []string{"route", "multicast"} {
		var st Stmt = body[3]
		if i == 0 {
			st = cond.Then[0]
		}
		if c, ok := st.(*CallStmt); !ok || c.Fn != want || c.Msg != "j" {
			t.Fatalf("%s form parsed as %#v", want, st)
		}
	}
	if c, ok := body[4].(*CallStmt); !ok || c.Fn != "route" || c.Msg != "" || len(c.Args) != 4 {
		t.Fatalf("route downcall parsed as %#v", body[4])
	}
}

// TestParseTreeConstructs: the constructs Overcast and AMMO use parse —
// keytables keyed by node and int, a bounded log of a message and the
// statement that appends to it, a send's priority, and the short and time
// field types.
func TestParseTreeConstructs(t *testing.T) {
	spec, err := Parse(`
protocol p
transports { TCP A; TCP B; }
messages { A m { short n; time at; double bw; } }
auxiliary_data {
  keytable c by node { double bw; } keytable s by int { bool on; } keytable k { int n; }
  log m backlog 64;
}
transitions {
  any recv m {
    log m(backlog, n = field(n), at = now());
    send m(from, bw = time_diff(now(), field(at))) via B;
    log_replay(backlog, from, A);
  }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"node", "int", "key"} {
		if v := spec.StateVars[i]; v.Kind != VarKeyTable || v.KeyType != want {
			t.Errorf("keytable %d parsed as %+v, want keyed by %s", i, v, want)
		}
	}
	if l := spec.StateVars[3]; l.Kind != VarLog || l.Type != "m" || l.Name != "backlog" || l.Max != "64" {
		t.Errorf("log parsed as %+v", l)
	}
	if f := spec.Messages[0].Fields; f[0].Type != "short" || f[1].Type != "time" {
		t.Errorf("fields parsed as %+v", f)
	}
	body := spec.Transitions[0].Body
	if c, ok := body[0].(*CallStmt); !ok || c.Fn != "log" || c.Msg != "m" || len(c.Fields) != 2 {
		t.Errorf("log statement parsed as %#v", body[0])
	}
	if c, ok := body[1].(*CallStmt); !ok || c.Fn != "send" || c.Via == nil || c.Via.String() != "B" {
		t.Errorf("send via parsed as %#v", body[1])
	}
	if c, ok := body[2].(*CallStmt); !ok || c.Fn != "log_replay" || len(c.Args) != 3 {
		t.Errorf("log_replay parsed as %#v", body[2])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []struct{ name, src, want string }{
		{"no protocol", `states { a; }`, `1:1: specification must start with "protocol"`},
		{"unknown section", `protocol p bogus { }`, `1:12: unknown section "bogus"`},
		{"undeclared message transition", `protocol p transports { UDP u; } transitions { any recv nope { } }`, `1:48: transition on undeclared message "nope"`},
		{"undeclared timer transition", `protocol p transitions { any timer nope { } }`, `1:26: transition on undeclared timer "nope"`},
		{"bad addressing", `protocol p addressing carrier`, `1:23: addressing must be hash or ip`},
		{"bad API", `protocol p transitions { any API frobnicate { } }`, `1:34: unknown API "frobnicate"`},
		{"guard unknown state", `protocol p transitions { flying API init { } }`, `1:26: guard references undeclared state "flying"`},
		{"transport on layered", `protocol p uses q transports { UDP u; }`, `1:32: layered protocols (uses q) must not declare transports`},
		{"message without transport", `protocol p messages { m { } }`, `1:23: message "m" of a lowest-layer protocol needs a transport`},
		{"duplicate state", `protocol p states { a; a; }`, `1:24: state "a" declared twice`},
		{"unterminated block", `protocol p states { a;`, `1:23: expected state name, got ""`},
		{"message bad transport", `protocol p transports { UDP u; } messages { X m { } }`, `1:45: message "m" binds undeclared transport "X"`},
	}
	for _, c := range bad {
		_, err := Parse(c.src)
		var perr *Error
		if !errors.As(err, &perr) || err.Error() != c.want {
			t.Errorf("%s: got error %v, want %s", c.name, err, c.want)
		}
	}
}

// TestStatementsOutsideTheSubsetAreErrors: a statement the grammar does not
// know is a parse error at its line and column, not a fragment passed
// through.
func TestStatementsOutsideTheSubsetAreErrors(t *testing.T) {
	for _, c := range []struct {
		body      string
		line, col int
	}{
		{"weird_c_call(a->b, *ptr);", 5, 30},
		{"for (i = 0; i < 10; i = i + 1) { something(); }", 5, 23},
		{"x = ;", 5, 20},
		{"groups[k] = 1;", 5, 26},
		{"int x = y +;", 5, 27},
	} {
		src := "protocol p\ntransports { UDP u; }\nmessages { u m { int x; } }\ntransitions {\n  any recv m { " + c.body + " }\n}\n"
		_, err := Parse(src)
		var perr *Error
		if !errors.As(err, &perr) {
			t.Errorf("%s: error %v is not positioned", c.body, err)
			continue
		}
		if perr.Pos.Line != c.line || perr.Pos.Col != c.col {
			t.Errorf("%s: error at %v, want %d:%d (%v)", c.body, perr.Pos, c.line, c.col, err)
		}
	}
}

// TestParseGrownSubset covers the structured-overlay constructs: local
// declarations, return, nodetable and keymap state, foreach over arbitrary
// collection expressions, and multiplicative arithmetic.
func TestParseGrownSubset(t *testing.T) {
	src := `
protocol p
constants { N = 8; }
transports { UDP u; }
messages { u m { key target; nodeset others; } }
auxiliary_data {
  nodeset ring;
  nodetable table N;
  keymap cache;
  int cursor;
}
transitions {
  any recv m {
    node best;
    int idx = 0;
    idx = (cursor * 2 + 1) % N;
    best = table_get(table, idx);
    if (best == nil_node) {
      return;
    }
    foreach (x in field(others)) {
      list_append(ring, x);
    }
    foreach (x in ring) {
      table_put(table, idx, x);
    }
  }
}
`
	spec, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	var table, cache *StateVar
	for i := range spec.StateVars {
		switch spec.StateVars[i].Name {
		case "table":
			table = &spec.StateVars[i]
		case "cache":
			cache = &spec.StateVars[i]
		}
	}
	if table == nil || table.Kind != VarTable || table.Max != "N" {
		t.Fatalf("nodetable state var = %+v", table)
	}
	if cache == nil || cache.Kind != VarPlain || cache.Type != "keymap" {
		t.Fatalf("keymap state var = %+v", cache)
	}
	body := spec.Transitions[0].Body
	if l, ok := body[0].(*LocalStmt); !ok || l.Type != "node" || l.Name != "best" || l.Value != nil {
		t.Fatalf("stmt 0 = %#v", body[0])
	}
	if l, ok := body[1].(*LocalStmt); !ok || l.Value == nil {
		t.Fatalf("stmt 1 = %#v", body[1])
	}
	if a, ok := body[2].(*AssignStmt); !ok || !strings.Contains(a.Value.String(), "%") {
		t.Fatalf("stmt 2 = %#v", body[2])
	}
	ifst, ok := body[4].(*IfStmt)
	if !ok || len(ifst.Then) != 1 {
		t.Fatalf("stmt 4 = %#v", body[4])
	}
	if _, ok := ifst.Then[0].(*ReturnStmt); !ok {
		t.Fatalf("if body = %#v", ifst.Then[0])
	}
	fe, ok := body[5].(*ForeachStmt)
	if !ok {
		t.Fatalf("stmt 5 = %#v", body[5])
	}
	if call, ok := fe.List.(CallExpr); !ok || call.Fn != "field" {
		t.Fatalf("foreach list = %#v", fe.List)
	}
}

// TestParseErrorPositions checks the line:column coordinates of positioned
// diagnostics, which `macedon check` users navigate by.
// TestUnaryMinus: a negative literal is a number, and -x is 0 - x.
func TestUnaryMinus(t *testing.T) {
	spec, err := Parse(`protocol p uses q messages { m { char layer; } } auxiliary_data { int x; }
		transitions { any recv m { x = -1; x = -x * 2; } }`)
	if err != nil {
		t.Fatal(err)
	}
	body := spec.Transitions[0].Body
	if got := body[0].(*AssignStmt).Value; got != (IntLit{Value: "-1"}) {
		t.Errorf("-1 parsed as %#v", got)
	}
	if got := body[1].(*AssignStmt).Value.String(); got != "((0 - x) * 2)" {
		t.Errorf("-x * 2 parsed as %s", got)
	}
}

func TestParseErrorPositions(t *testing.T) {
	cases := []struct {
		name, src string
		line, col int
	}{
		{"bad char", "protocol p\ntransports { UDP u; }\nmessages { u m { int #; } }\n", 3, 22},
		{"bad section", "protocol p\nnonsense { }\n", 2, 1},
		{"bad transport kind", "protocol p\ntransports {\n  QUIC q;\n}\n", 3, 3},
		{"missing semicolon", "protocol p\nstates { a b }\n", 2, 12},
		{"bad state var type", "protocol p\nauxiliary_data {\n  widget w;\n}\n", 3, 3},
		{"bad keytable key type", "protocol p\nauxiliary_data {\n  keytable t by buffer { int n; }\n}\n", 3, 17},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		perr, ok := err.(*Error)
		if !ok {
			t.Errorf("%s: error %v is not positioned", c.name, err)
			continue
		}
		if perr.Pos.Line != c.line || perr.Pos.Col != c.col {
			t.Errorf("%s: error at %v, want %d:%d (%v)", c.name, perr.Pos, c.line, c.col, err)
		}
	}
}

// TestValidateDiagnostics covers the semantic checks on malformed but
// syntactically valid specifications: bad timer arguments, unsizeable
// collections, and unknown references. The checks on transition bodies are
// codegen's (TestGenerateErrors there).
func TestValidateDiagnostics(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"timer period not a number",
			`protocol p transports { UDP u; } messages { u m { } }
			 auxiliary_data { timer t BOGUS; }`,
			"timer \"t\" period"},
		{"timer period negative constant",
			`protocol p constants { T = x9; } transports { UDP u; } messages { u m { } }
			 auxiliary_data { timer t T; }`,
			"timer \"t\" period"},
		{"nodetable size not positive",
			`protocol p transports { UDP u; } messages { u m { } }
			 auxiliary_data { nodetable t 0; }`,
			"nodetable \"t\" size"},
		{"nodetable size unknown constant",
			`protocol p transports { UDP u; } messages { u m { } }
			 auxiliary_data { nodetable t SIZE; }`,
			"nodetable \"t\" size"},
		{"neighbor list capacity bad",
			`protocol p transports { UDP u; } messages { u m { } }
			 neighbor_types { k_t 2 { } } auxiliary_data { k_t kids NOPE; }`,
			"neighbor list \"kids\" capacity"},
		{"neighbor type capacity bad",
			`protocol p transports { UDP u; } messages { u m { } }
			 neighbor_types { k_t WAT { } }`,
			"neighbor type \"k_t\" capacity"},
		{"message field unknown type",
			`protocol p transports { UDP u; } messages { u m { gadget x; } }`,
			"unknown type"},
		{"guard references unknown state",
			`protocol p transports { UDP u; } messages { u m { } }
			 transitions { flying recv m { } }`,
			"undeclared state"},
		{"keytable field unknown type",
			`protocol p uses q messages { m { } } auxiliary_data { keytable g { gadget x; } }`,
			"keytable \"g\" field \"x\" has unknown type"},
		{"keytable field twice",
			`protocol p uses q messages { m { } } auxiliary_data { keytable g { int x; bool x; } }`,
			"keytable \"g\" field \"x\" declared twice"},
		{"constant not a number",
			`protocol p constants { GAIN = 1.2.3; } transports { UDP u; } messages { u m { } }`,
			"constant GAIN = 1.2.3 is neither an int or double literal nor a name"},
		{"log of undeclared message",
			`protocol p transports { UDP u; } messages { u m { } } auxiliary_data { log data backlog 8; }`,
			"log \"backlog\" of undeclared message \"data\""},
		{"log size not positive",
			`protocol p transports { UDP u; } messages { u m { } } auxiliary_data { log m backlog 0; }`,
			"log \"backlog\" size"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestCountLines(t *testing.T) {
	src := "protocol x\n\n// comment only\nstates { a; }\n/* block\ncomment */\ntransports { UDP u; }\n"
	if n := CountLines(src); n != 3 {
		t.Fatalf("CountLines = %d, want 3", n)
	}
}

// TestAllBundledSpecsParse validates every specs/*.mac in the repository:
// the paper's expressiveness claim (§4.1) for this codebase.
func TestAllBundledSpecsParse(t *testing.T) {
	paths, err := repo.Specs()
	if err != nil || len(paths) == 0 {
		t.Fatalf("no specs found: %v", err)
	}
	names := map[string]bool{}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := Parse(string(src))
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		names[spec.Name] = true
		base := strings.TrimSuffix(filepath.Base(path), ".mac")
		if spec.Name != base {
			t.Errorf("%s declares protocol %q", path, spec.Name)
		}
		if n := CountLines(string(src)); n < 20 {
			t.Errorf("%s suspiciously small: %d lines", path, n)
		}
	}
	for _, want := range []string{"randtree", "overcast", "chord", "pastry", "scribe", "splitstream", "nice", "bullet", "ammo"} {
		if !names[want] {
			t.Errorf("missing bundled spec for %s", want)
		}
	}
}
