// Package codegen translates parsed MACEDON specifications into Go agents
// for the engine — the role §3.2 of the paper assigns the MACEDON
// translator (which emitted C++). Message declarations become typed structs
// with binary codecs against internal/overlay, the STATE AND DATA sections
// become core.Def registrations plus Agent struct fields (scalars, nodeset
// slices, fixed-size nodetable arrays, keymap maps), and transition bodies
// written in the documented action-language subset (§3.3's primitives,
// ring-interval and prefix key arithmetic, bounded collection insertion)
// are translated statement by statement into calls on core.Context and the
// action library in internal/core (actions.go), which is compiled once for
// every generated agent.
//
// A construct outside the subset is an error at its line and column. Every
// spec under specs/ translates, and its output is committed under
// internal/overlays/<name>, beside the registry (Registry) that resolves a
// scenario's protocol name through the specs' `uses` lines; a test keeps
// both in sync. The pipeline walkthrough is docs/codegen.md; the language
// reference is docs/maclang.md.
package codegen

import (
	"fmt"
	"go/token"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"macedon/internal/dsl"
)

// Result carries the generated source plus the counts `macedon gen`
// reports.
type Result struct {
	Source      string
	Package     string
	Translated  int // statements translated into Go
	Transitions int
}

// Generate emits a Go package implementing core.Agent from a specification.
func Generate(spec *dsl.Spec, pkg string) (*Result, error) {
	g := &generator{
		spec:     spec,
		pkg:      pkg,
		consts:   map[string]string{},
		varTypes: map[string]dsl.StateVar{},
		msgs:     map[string]dsl.Message{},
		// Locals are value-typed only: the collection primitives resolve
		// nodeset/nodetable/keymap operands through declared state
		// variables, so a collection-typed local would be undrivable, and
		// declaring one is an error.
		localTypes: map[string]bool{
			"int": true, "short": true, "char": true, "double": true, "time": true, "bool": true, "key": true,
			"macedon_key": true, "node": true, "buffer": true,
			"string": true,
		},
	}
	for _, c := range spec.Constants {
		lit, ok := number(c.Value)
		if !ok && !token.IsIdentifier(c.Value) {
			return nil, fmt.Errorf("codegen: %s: constant %s = %s is neither a number nor a Go name", c.Pos, c.Name, c.Value)
		}
		g.consts[c.Name] = lit
	}
	for _, v := range spec.StateVars {
		g.varTypes[v.Name] = v
	}
	for _, m := range spec.Messages {
		g.msgs[m.Name] = m
	}
	src, err := g.file()
	if err != nil {
		return nil, err
	}
	return &Result{Source: src, Package: pkg, Translated: g.translated,
		Transitions: len(spec.Transitions)}, nil
}

type generator struct {
	spec       *dsl.Spec
	pkg        string
	b          strings.Builder
	consts     map[string]string
	translated int
	usesSlices bool // a translation called slices.Contains
	usesTime   bool // a period was scaled by time.Millisecond

	varTypes map[string]dsl.StateVar
	msgs     map[string]dsl.Message

	// Per-handler context.
	curMsg   *dsl.Message
	curKind  dsl.TransitionKind
	loopVars map[string]string // loop variables in scope: name → mac type
	locals   map[string]string // handler-scoped locals: name → mac type
	// rewrites maps a forward_upcall's payload argument, by its source text,
	// to the Go local holding the payload the layer above returned; it is
	// block-scoped like locals. fwCount numbers those locals per handler.
	rewrites map[string]string
	fwCount  int

	localTypes map[string]bool
}

func (g *generator) pf(format string, args ...any) {
	fmt.Fprintf(&g.b, format, args...)
}

// camel converts mac snake_case to exported Go CamelCase. A name that would
// not start with an upper-case letter ("_", "_1", or a script without case)
// gets an X in front.
func camel(s string) string {
	var out strings.Builder
	for _, p := range strings.Split(s, "_") {
		r, n := utf8.DecodeRuneInString(p)
		if n == 0 {
			continue
		}
		out.WriteRune(unicode.ToUpper(r))
		out.WriteString(p[n:])
	}
	if r, _ := utf8.DecodeRuneInString(out.String()); !unicode.IsUpper(r) {
		return "X" + out.String()
	}
	return out.String()
}

// goName is the Go name of a spec local or loop variable: its own name,
// unless Go reserves it or the generated code already binds it there, in
// which case an underscore is appended.
func goName(name string) string {
	if token.IsKeyword(name) || boundNames[name] || strings.HasPrefix(name, "fwPayload") {
		return name + "_"
	}
	return name
}

// boundNames are the names a handler body already uses: its parameters and
// locals, the imported packages, and the predeclared identifiers the
// translation emits.
var boundNames = map[string]bool{
	"_": true, "a": true, "ctx": true, "call": true, "ev": true, "m": true, "fwOk": true,
	"time": true, "core": true, "overlay": true, "slices": true,
	"int": true, "int32": true, "float64": true, "bool": true, "string": true, "byte": true,
	"len": true, "append": true, "clear": true, "delete": true, "make": true,
	"nil": true, "true": true, "false": true,
}

// number translates a number token of the spec into a Go literal. A decimal
// integer is read as Validate reads it, so a leading zero does not make it
// octal; any other integer or floating-point literal Go accepts is kept as
// it is.
func number(v string) (string, bool) {
	if n, err := strconv.Atoi(v); err == nil {
		return strconv.Itoa(n), true
	}
	_, errInt := strconv.ParseInt(v, 0, 64)
	_, errFloat := strconv.ParseFloat(v, 64)
	return v, errInt == nil || errFloat == nil
}

// emitSetParam writes the accessor a scenario's params reach the agent
// through: one case per int auxiliary variable, by its spec name, so the
// names are defined in the spec alone.
func (g *generator) emitSetParam(s *dsl.Spec) {
	g.pf("// SetParam sets the int auxiliary variable name to v, reporting whether\n")
	g.pf("// the spec declares one: how a scenario's params reach the agent.\n")
	var ints []string
	for _, v := range s.StateVars {
		if v.Kind == dsl.VarPlain && v.Type == "int" {
			ints = append(ints, v.Name)
		}
	}
	if len(ints) == 0 {
		g.pf("func (*Agent) SetParam(string, int32) bool { return false }\n\n")
		return
	}
	g.pf("func (a *Agent) SetParam(name string, v int32) bool {\n\tswitch name {\n")
	for _, n := range ints {
		g.pf("\tcase %q:\n\t\ta.%s = v\n", n, camel(n))
	}
	g.pf("\tdefault:\n\t\treturn false\n\t}\n\treturn true\n}\n\n")
}

// viewFields maps each routing role onto its core.RoutingView field.
var viewFields = map[string]string{
	"succ": "Succs", "pred": "Pred", "fingers": "Fingers",
	"leafset": "Leafset",
	"root":    "Root", "parent": "Parent", "children": "Children",
}

// emitRouting writes the method that reads the routing declaration's view:
// one assignment per bound role, through the reads the variable's type
// already has. A nodeset or nodetable is copied, a neighbor list read
// through the instance, and a neighbor list bound to a single-address role
// gives its first member.
func (g *generator) emitRouting(r *dsl.Routing) error {
	if r == nil {
		return nil
	}
	g.pf("// Routing fills v with the routing state the spec's routing declaration\n")
	g.pf("// names: how the correctness plane and the fuzzer read this agent.\n")
	g.pf("func (a *Agent) Routing(inst *core.Instance, v *core.RoutingView) {\n")
	g.pf("\tv.Kind = core.Routing%s\n", camel(r.Kind.String()))
	for _, b := range r.Binds {
		role, okRole := r.Kind.Role(b.Role)
		v, okVar := g.varTypes[b.Var]
		if !okRole || !okVar {
			return fmt.Errorf("codegen: %s: routing role %s = %s is not a role bound to a declared variable", b.Pos, b.Role, b.Var)
		}
		var read string
		switch {
		case v.Kind == dsl.VarNeighborList && role.List:
			read = fmt.Sprintf("inst.NeighborsSnapshot(%q)", v.Name)
		case v.Kind == dsl.VarNeighborList:
			read = fmt.Sprintf("core.ListGet(inst.NeighborsSnapshot(%q), 0)", v.Name)
		case v.Kind == dsl.VarTable:
			read = fmt.Sprintf("append([]overlay.Address(nil), a.%s[:]...)", camel(v.Name))
		case v.Type == "nodeset":
			read = fmt.Sprintf("append([]overlay.Address(nil), a.%s...)", camel(v.Name))
		default:
			read = "a." + camel(v.Name)
		}
		g.pf("\tv.%s = %s\n", viewFields[b.Role], read)
	}
	g.pf("}\n\n")
	return nil
}

// goType maps mac field types onto Go types. A short is an int that travels
// in 16 bits and a char one that travels, signed, in 8; a time is a clock
// reading or span in nanoseconds; intset and timeset are lists of ints and
// times; tickets is a list of (node, summary) pairs; blocks, clusters and
// dedup are the block store, cluster table and packet-key set of core.
func goType(t string) string {
	switch t {
	case "int", "short", "char":
		return "int32"
	case "double":
		return "float64"
	case "time":
		return "int64"
	case "bool":
		return "bool"
	case "key", "macedon_key":
		return "overlay.Key"
	case "node":
		return "overlay.Address"
	case "buffer":
		return "[]byte"
	case "string":
		return "string"
	case "nodeset":
		return "[]overlay.Address"
	case "keyset":
		return "[]overlay.Key"
	case "intset":
		return "[]int32"
	case "timeset":
		return "[]int64"
	case "tickets":
		return "[]core.Ticket"
	case "blocks":
		return "core.Blocks"
	case "clusters":
		return "core.Clusters"
	case "dedup":
		return "core.Dedup"
	case "keymap":
		return "map[overlay.Key]overlay.Address"
	case "tally":
		return "core.Tally"
	}
	return "int32"
}

func encodeCall(f dsl.Field) string {
	n := camel(f.Name)
	switch f.Type {
	case "int":
		return fmt.Sprintf("w.I32(m.%s)", n)
	case "short":
		return fmt.Sprintf("w.U16(uint16(m.%s))", n)
	case "char":
		return fmt.Sprintf("w.U8(uint8(m.%s))", n)
	case "time":
		return fmt.Sprintf("w.I64(m.%s)", n)
	case "double":
		return fmt.Sprintf("w.F64(m.%s)", n)
	case "bool":
		return fmt.Sprintf("w.Bool(m.%s)", n)
	case "key", "macedon_key":
		return fmt.Sprintf("w.Key(m.%s)", n)
	case "node":
		return fmt.Sprintf("w.Addr(m.%s)", n)
	case "buffer":
		return fmt.Sprintf("w.Bytes32(m.%s)", n)
	case "string":
		return fmt.Sprintf("w.String16(m.%s)", n)
	case "nodeset":
		return fmt.Sprintf("w.Addrs(m.%s)", n)
	case "keyset":
		return fmt.Sprintf("w.Keys(m.%s)", n)
	case "intset":
		return fmt.Sprintf("w.I32s(m.%s)", n)
	case "timeset":
		return fmt.Sprintf("w.I64s(m.%s)", n)
	case "tickets":
		return fmt.Sprintf("core.WriteTickets(w, m.%s)", n)
	}
	return fmt.Sprintf("w.I32(m.%s)", n)
}

func decodeCall(f dsl.Field) string {
	n := camel(f.Name)
	switch f.Type {
	case "int":
		return fmt.Sprintf("m.%s = r.I32()", n)
	case "short":
		return fmt.Sprintf("m.%s = int32(r.U16())", n)
	case "char":
		return fmt.Sprintf("m.%s = int32(int8(r.U8()))", n)
	case "time":
		return fmt.Sprintf("m.%s = r.I64()", n)
	case "double":
		return fmt.Sprintf("m.%s = r.F64()", n)
	case "bool":
		return fmt.Sprintf("m.%s = r.Bool()", n)
	case "key", "macedon_key":
		return fmt.Sprintf("m.%s = r.Key()", n)
	case "node":
		return fmt.Sprintf("m.%s = r.Addr()", n)
	case "buffer":
		return fmt.Sprintf("m.%s = r.Bytes32()", n)
	case "string":
		return fmt.Sprintf("m.%s = r.String16()", n)
	case "nodeset":
		// Into the array the engine's receive slot kept from its last decode.
		return fmt.Sprintf("m.%s = r.AppendAddrs(m.%s[:0])", n, n)
	case "keyset":
		return fmt.Sprintf("m.%s = r.Keys()", n)
	case "intset":
		return fmt.Sprintf("m.%s = r.AppendI32s(m.%s[:0])", n, n)
	case "timeset":
		return fmt.Sprintf("m.%s = r.AppendI64s(m.%s[:0])", n, n)
	case "tickets":
		return fmt.Sprintf("m.%s = core.ReadTickets(r, m.%s)", n, n)
	}
	return fmt.Sprintf("m.%s = r.I32()", n)
}

// resolve substitutes constants.
func (g *generator) resolve(v string) string {
	if rep, ok := g.consts[v]; ok {
		return rep
	}
	if lit, ok := number(v); ok {
		return lit
	}
	return v
}

func msgTypeName(name string) string { return "msg" + camel(name) }

func (g *generator) file() (string, error) {
	s := g.spec
	// Message structs + codecs.
	for _, m := range s.Messages {
		tn := msgTypeName(m.Name)
		if len(m.Fields) == 0 {
			g.pf("type %s struct{}\n\n", tn)
			g.pf("func (m *%s) MsgName() string { return %q }\n\n", tn, m.Name)
			g.pf("func (m *%s) Encode(*overlay.Writer) {}\n\n", tn)
			g.pf("func (m *%s) Decode(r *overlay.Reader) error { return r.Err() }\n\n", tn)
			continue
		}
		g.pf("type %s struct {\n", tn)
		for _, f := range m.Fields {
			g.pf("\t%s %s\n", camel(f.Name), goType(f.Type))
		}
		g.pf("}\n\n")
		g.pf("func (m *%s) MsgName() string { return %q }\n\n", tn, m.Name)
		g.pf("func (m *%s) Encode(w *overlay.Writer) {\n", tn)
		for _, f := range m.Fields {
			g.pf("\t%s\n", encodeCall(f))
		}
		g.pf("}\n\n")
		g.pf("func (m *%s) Decode(r *overlay.Reader) error {\n", tn)
		for _, f := range m.Fields {
			g.pf("\t%s\n", decodeCall(f))
		}
		g.pf("\treturn r.Err()\n}\n\n")
	}

	// Message scratch: the slots send statements build in.
	g.pf("%s", msgScratchDoc)
	g.pf("type msgScratch struct{ tx msgSlots }\n\n")
	g.pf("// msgSlots holds one message of every declared type.\ntype msgSlots struct {\n")
	for _, m := range s.Messages {
		g.pf("\t%s %s\n", camel(m.Name), msgTypeName(m.Name))
	}
	g.pf("}\n\n")
	g.pf("// StateCopyOpaque keeps the scratch out of checkpoint images: between events\n")
	g.pf("// it is garbage, and a copied slot would pin the payload it last saw.\n")
	g.pf("func (*msgScratch) StateCopyOpaque() {}\n\n")

	// A keytable's records, then the Agent struct with plain state
	// variables, node tables, keymaps and keytables.
	for _, v := range s.StateVars {
		if v.Kind == dsl.VarKeyTable {
			g.pf("// %sEntry is one record of the keytable %s.\ntype %sEntry struct {\n", camel(v.Name), v.Name, camel(v.Name))
			for _, f := range v.Fields {
				g.pf("\t%s %s\n", camel(f.Name), goType(f.Type))
			}
			g.pf("}\n\n")
		}
	}
	g.pf("// Agent is the generated protocol instance.\ntype Agent struct {\n")
	for _, v := range s.StateVars {
		switch v.Kind {
		case dsl.VarPlain:
			g.pf("\t%s %s\n", camel(v.Name), goType(v.Type))
		case dsl.VarTable:
			g.pf("\t%s [%s]overlay.Address\n", camel(v.Name), g.resolve(v.Max))
		case dsl.VarKeyTable:
			g.pf("\t%s map[%s]*%sEntry\n", camel(v.Name), goType(v.KeyType), camel(v.Name))
		case dsl.VarLog:
			g.pf("\t%s []%s\n", camel(v.Name), msgTypeName(v.Type))
		}
	}
	g.pf("\n\tio msgScratch // a named field: embedding would promote StateCopyOpaque to Agent\n")
	g.pf("}\n\n")
	g.pf("// New returns a factory for generated %s agents.\n", s.Name)
	g.pf("func New() core.Factory {\n\treturn func() core.Agent { return &Agent{} }\n}\n\n")
	g.pf("// ProtocolName implements the engine's naming hook.\n")
	g.pf("func (a *Agent) ProtocolName() string { return %q }\n\n", s.Name)
	g.pf("// DefinedByType makes the agent core.TypeDefined: Define reads no agent and\n")
	g.pf("// no transition keeps ev.Msg, so one Def serves every instance.\n")
	g.pf("func (*Agent) DefinedByType() {}\n\n")
	g.emitSetParam(s)
	if err := g.emitRouting(s.Routing); err != nil {
		return "", err
	}

	// Define. Its receiver is unnamed, so it cannot read the agent: handlers
	// receive theirs through the core adapters, and factories make fresh
	// messages for the engine's receive slots.
	g.pf("// Define declares the generated FSM.\nfunc (*Agent) Define(d *core.Def) {\n")
	if len(s.States) > 0 {
		var qs []string
		for _, st := range s.States {
			qs = append(qs, fmt.Sprintf("%q", st))
		}
		g.pf("\td.States(%s)\n", strings.Join(qs, ", "))
	}
	if s.Addressing == "ip" {
		g.pf("\td.Addressing(core.IPAddressing)\n")
	} else {
		g.pf("\td.Addressing(core.HashAddressing)\n")
	}
	if s.Trace != "off" {
		g.pf("\td.Trace(core.Trace%s)\n", camel(s.Trace))
	}
	for _, tr := range s.Transports {
		switch tr.Kind {
		case "TCP":
			g.pf("\td.TCPTransport(%q)\n", tr.Name)
		case "UDP":
			g.pf("\td.UDPTransport(%q)\n", tr.Name)
		case "SWP":
			g.pf("\td.SWPTransport(%q)\n", tr.Name)
		}
	}
	for _, m := range s.Messages {
		g.pf("\td.Message(%q, func() overlay.Message { return &%s{} }, %q)\n", m.Name, msgTypeName(m.Name), m.Transport)
	}
	for _, v := range s.StateVars {
		switch v.Kind {
		case dsl.VarTimer:
			period := "0"
			if v.Period != "" {
				period = g.resolve(v.Period) + "*time.Millisecond"
				g.usesTime = true
			}
			if v.Periodic {
				g.pf("\td.PeriodicTimer(%q, %s)\n", v.Name, period)
			} else {
				g.pf("\td.Timer(%q, %s)\n", v.Name, period)
			}
		case dsl.VarNeighborList:
			max := g.listMax(v)
			g.pf("\td.NeighborList(%q, %s, %v)\n", v.Name, max, v.FailDetect)
		}
	}
	for i, tr := range s.Transitions {
		guard := guardGo(tr.Guard)
		lock := "core.Write"
		if tr.Locking == "read" {
			lock = "core.Read"
		}
		h := fmt.Sprintf("(*Agent).transition%d", i)
		switch tr.Kind {
		case dsl.TransAPI:
			g.pf("\td.OnAPI(overlay.API%s, %s, %s, core.APIOf(%s))\n", apiConst(tr.Name), guard, lock, h)
		case dsl.TransTimer:
			g.pf("\td.OnTimer(%q, %s, %s, core.TimerOf(%s))\n", tr.Name, guard, lock, h)
		case dsl.TransRecv:
			g.pf("\td.OnRecv(%q, %s, %s, core.RecvOf(%s))\n", tr.Name, guard, lock, h)
		case dsl.TransForward:
			g.pf("\td.OnForward(%q, %s, %s, core.RecvOf(%s))\n", tr.Name, guard, lock, h)
		}
	}
	g.pf("}\n\n")

	// Handlers.
	for i, tr := range s.Transitions {
		if err := g.handler(i, tr); err != nil {
			return "", err
		}
	}

	// The header goes last, once the handlers have shown which imports
	// they use.
	body := g.b.String()
	g.b.Reset()
	g.pf("// Code generated by \"macedon gen\" from specs/%s.mac. DO NOT EDIT.\n", s.Name)
	g.pf("\n// Package %s is the generated MACEDON agent for protocol %q.\n", g.pkg, s.Name)
	g.pf("package %s\n\nimport (\n", g.pkg)
	if g.usesSlices {
		g.pf("\t\"slices\"\n")
	}
	if g.usesTime {
		g.pf("\t\"time\"\n")
	}
	if g.usesSlices || g.usesTime {
		g.pf("\n")
	}
	g.pf("\t\"macedon/internal/core\"\n\t\"macedon/internal/overlay\"\n)\n\n")
	return g.b.String() + body, nil
}

// msgScratchDoc is emitted above the scratch type: the argument for it lives
// with the code it licenses.
const msgScratchDoc = `// msgScratch is where this agent builds the messages it sends: per declared
// message one send slot (tx), which a send statement fills and hands to
// ctx.Send. A received message lives in the engine's receive slot for its
// type, which is not this slot, so a forwarding transition can build the
// message it sends from fields of the one it received.
//
// Reusing a send slot is safe because ctx.Send encodes the message before it
// returns and keeps no reference to it. Nothing generated keeps ev.Msg or a
// sent message past its transition.
`

func (g *generator) listMax(v dsl.StateVar) string {
	if v.Max != "" {
		return g.resolve(v.Max)
	}
	// Fall back to the neighbor type's declared max.
	for _, nt := range g.spec.NeighborTypes {
		if nt.Name == v.Type && nt.Max != "" {
			return g.resolve(nt.Max)
		}
	}
	return "1"
}

func guardGo(gd dsl.StateGuard) string {
	switch gd := gd.(type) {
	case dsl.GuardAny:
		return "core.Any"
	case dsl.GuardStates:
		var qs []string
		for _, s := range gd.States {
			qs = append(qs, fmt.Sprintf("%q", s))
		}
		return fmt.Sprintf("core.In(%s)", strings.Join(qs, ", "))
	case dsl.GuardNot:
		return fmt.Sprintf("core.Not(%s)", guardGo(gd.Inner))
	}
	return "core.Any"
}

func apiConst(name string) string {
	switch name {
	case "init":
		return "Init"
	case "route":
		return "Route"
	case "routeIP":
		return "RouteIP"
	case "multicast":
		return "Multicast"
	case "anycast":
		return "Anycast"
	case "collect":
		return "Collect"
	case "create_group":
		return "CreateGroup"
	case "join":
		return "Join"
	case "leave":
		return "Leave"
	case "error":
		return "Error"
	case "notify":
		return "Notify"
	case "upcall_ext":
		return "UpcallExt"
	case "downcall_ext":
		return "DowncallExt"
	}
	return camel(name)
}

func (g *generator) handler(i int, tr dsl.Transition) error {
	g.curKind = tr.Kind
	g.curMsg = nil
	g.loopVars = map[string]string{}
	g.locals = map[string]string{}
	g.rewrites = map[string]string{}
	g.fwCount = 0
	g.pf("// transition%d implements: %s %s %s [locking %s;]\n", i, tr.Guard, tr.Kind, tr.Name, tr.Locking)
	switch tr.Kind {
	case dsl.TransAPI:
		g.pf("func (a *Agent) transition%d(ctx *core.Context, call *core.APICall) {\n", i)
	case dsl.TransTimer:
		g.pf("func (a *Agent) transition%d(ctx *core.Context) {\n", i)
	case dsl.TransRecv, dsl.TransForward:
		m := g.msgs[tr.Name]
		g.curMsg = &m
		g.pf("func (a *Agent) transition%d(ctx *core.Context, ev *core.MsgEvent, m *%s) {\n", i, msgTypeName(tr.Name))
	}
	for _, st := range tr.Body {
		if err := g.stmt(st, 1); err != nil {
			return err
		}
	}
	g.pf("}\n\n")
	return nil
}
