// Package codegen translates parsed MACEDON specifications into Go agents
// for the engine — the role §3.2 of the paper assigns the MACEDON
// translator (which emitted C++). Message declarations become typed structs
// with binary codecs against internal/overlay, the STATE AND DATA sections
// become core.Def registrations plus Agent struct fields (scalars, nodeset
// slices, fixed-size nodetable arrays, keymap maps), and transition bodies
// written in the documented action-language subset (§3.3's primitives,
// ring-interval and prefix key arithmetic, bounded collection insertion)
// are translated statement by statement against core.Context and a small
// set of runtime helpers emitted only when referenced.
//
// Statements outside the subset degrade softly: they are preserved as
// "TODO(macedon)" comments, exactly as a human would port remaining C
// fragments, and counted in Result.Opaque alongside Result.Translated so
// `macedon gen` and the CI gen-coverage job can report per-spec coverage.
// The chord, pastry, and randtree specifications translate TODO-free; the
// committed outputs under internal/overlays/gen* are kept in sync by tests
// and gated by routing-oracle conformance tests under churn. The pipeline
// walkthrough is docs/codegen.md; the language reference is
// docs/maclang.md.
package codegen

import (
	"fmt"
	"strconv"
	"strings"

	"macedon/internal/dsl"
)

// Result carries the generated source plus translation statistics: the
// per-spec coverage numbers `macedon gen` reports and the CI coverage job
// publishes.
type Result struct {
	Source      string
	Package     string
	Translated  int // statements translated into Go
	Opaque      int // statements preserved as TODO comments
	Transitions int
}

// Generate emits a Go package implementing core.Agent from a specification.
func Generate(spec *dsl.Spec, pkg string) (*Result, error) {
	g := &generator{
		spec:     spec,
		pkg:      pkg,
		consts:   map[string]string{},
		helpers:  map[string]bool{},
		varTypes: map[string]dsl.StateVar{},
		msgs:     map[string]dsl.Message{},
		// Locals are value-typed only: the collection primitives resolve
		// nodeset/nodetable/keymap operands through declared state
		// variables, so a collection-typed local would be undrivable —
		// rejecting the declaration makes it degrade to a visible TODO
		// instead of silently dropping every statement that touches it.
		localTypes: map[string]bool{
			"int": true, "double": true, "bool": true, "key": true,
			"macedon_key": true, "node": true, "buffer": true,
			"string": true,
		},
	}
	for _, c := range spec.Constants {
		g.consts[c.Name] = c.Value
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
		Opaque: g.opaque, Transitions: len(spec.Transitions)}, nil
}

type generator struct {
	spec       *dsl.Spec
	pkg        string
	b          strings.Builder
	consts     map[string]string
	opaque     int
	translated int
	helpers    map[string]bool // runtime helpers referenced by translated code

	varTypes map[string]dsl.StateVar
	msgs     map[string]dsl.Message

	// Per-handler context.
	curMsg   *dsl.Message
	curKind  dsl.TransitionKind
	loopVars map[string]bool
	locals   map[string]string // handler-scoped locals: name → mac type
	// rewrites maps a forward_upcall's payload argument, by its source text,
	// to the Go local holding the payload the layer above returned; it is
	// block-scoped like locals. fwCount numbers those locals per handler.
	rewrites map[string]string
	fwCount  int

	localTypes map[string]bool
}

// need marks a runtime helper for emission at the end of the file.
func (g *generator) need(helper string) { g.helpers[helper] = true }

func init() { _ = strconv.Itoa } // strconv used in literal handling below

func (g *generator) pf(format string, args ...any) {
	fmt.Fprintf(&g.b, format, args...)
}

// camel converts mac snake_case to exported Go CamelCase.
func camel(s string) string {
	parts := strings.Split(s, "_")
	var out strings.Builder
	for _, p := range parts {
		if p == "" {
			continue
		}
		out.WriteString(strings.ToUpper(p[:1]))
		out.WriteString(p[1:])
	}
	return out.String()
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

// goType maps mac field types onto Go types.
func goType(t string) string {
	switch t {
	case "int":
		return "int32"
	case "double":
		return "float64"
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
	case "keymap":
		return "map[overlay.Key]overlay.Address"
	}
	return "int32"
}

func encodeCall(f dsl.Field) string {
	n := camel(f.Name)
	switch f.Type {
	case "int":
		return fmt.Sprintf("w.I32(m.%s)", n)
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
	}
	return fmt.Sprintf("w.I32(m.%s)", n)
}

func decodeCall(f dsl.Field) string {
	n := camel(f.Name)
	switch f.Type {
	case "int":
		return fmt.Sprintf("m.%s = r.I32()", n)
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
	}
	return fmt.Sprintf("m.%s = r.I32()", n)
}

// resolve substitutes constants.
func (g *generator) resolve(v string) string {
	if rep, ok := g.consts[v]; ok {
		return rep
	}
	return v
}

func msgTypeName(name string) string { return "msg" + camel(name) }

func (g *generator) file() (string, error) {
	s := g.spec
	g.pf("// Code generated by \"macedon gen\" from specs/%s.mac. DO NOT EDIT.\n", s.Name)
	g.pf("\n// Package %s is the generated MACEDON agent for protocol %q.\n", g.pkg, s.Name)
	g.pf("package %s\n\n", g.pkg)
	g.pf("import (\n\t\"time\"\n\n\t\"macedon/internal/core\"\n\t\"macedon/internal/overlay\"\n)\n\n")
	g.pf("var _ = time.Millisecond\n\n")

	// Message structs + codecs.
	for _, m := range s.Messages {
		tn := msgTypeName(m.Name)
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

	// Agent struct with plain state variables, node tables, and keymaps.
	g.pf("// Agent is the generated protocol instance.\ntype Agent struct {\n")
	for _, v := range s.StateVars {
		switch v.Kind {
		case dsl.VarPlain:
			g.pf("\t%s %s\n", camel(v.Name), goType(v.Type))
		case dsl.VarTable:
			g.pf("\t%s [%s]overlay.Address\n", camel(v.Name), g.resolve(v.Max))
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

	// Helpers: only those the spec's translation referenced, in a fixed
	// order so regeneration is reproducible.
	if g.helpers["ringInsert"] {
		g.need("listContains")
	}
	for _, h := range helperOrder {
		if g.helpers[h.name] {
			g.pf("\n%s", h.source)
		}
	}
	return g.b.String(), nil
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

// helperOrder fixes the emission order of the conditional runtime helpers.
var helperOrder = []struct {
	name   string
	source string
}{
	{"nbrRandom", `func nbrRandom(ctx *core.Context, list string) overlay.Address {
	if n := ctx.Neighbors(list).Random(ctx.Rand()); n != nil {
		return n.Addr
	}
	return overlay.NilAddress
}
`},
	{"nbrFirst", `func nbrFirst(ctx *core.Context, list string) overlay.Address {
	if n := ctx.Neighbors(list).First(); n != nil {
		return n.Addr
	}
	return overlay.NilAddress
}
`},
	{"put", `// put stores v in slot and returns slot: a send builds its message in the
// agent's send slot inside the Send call expression, so the destination is
// evaluated before the fields, as when the message was a fresh literal.
func put[T any](slot *T, v T) *T {
	*slot = v
	return slot
}
`},
	{"nbrSync", `// nbrSync replaces a neighbor list's members with a nodeset's, skipping
// nil and self (the failure detector monitors peers, not the local node).
func nbrSync(ctx *core.Context, list string, self overlay.Address, s []overlay.Address) {
	ctx.Neighbors(list).Assign(s, self)
}
`},
	{"listAppend", `// listAppend appends a to the list unless already present (or nil), in
// place: a nodeset variable owns its array.
func listAppend(s []overlay.Address, a overlay.Address) []overlay.Address {
	if a == overlay.NilAddress {
		return s
	}
	for _, x := range s {
		if x == a {
			return s
		}
	}
	return append(s, a)
}
`},
	{"listPrepend", `// listPrepend moves or inserts a at the front of the list.
func listPrepend(s []overlay.Address, a overlay.Address) []overlay.Address {
	if a == overlay.NilAddress {
		return s
	}
	out := make([]overlay.Address, 0, len(s)+1)
	out = append(out, a)
	for _, x := range s {
		if x != a {
			out = append(out, x)
		}
	}
	return out
}
`},
	{"listRemove", `// listRemove deletes every occurrence of a.
func listRemove(s []overlay.Address, a overlay.Address) []overlay.Address {
	out := make([]overlay.Address, 0, len(s))
	for _, x := range s {
		if x != a {
			out = append(out, x)
		}
	}
	return out
}
`},
	{"listTrunc", `// listTrunc bounds the list to its first n entries.
func listTrunc(s []overlay.Address, n int32) []overlay.Address {
	if n < 0 {
		n = 0
	}
	if int32(len(s)) > n {
		return s[:n]
	}
	return s
}
`},
	{"listGet", `// listGet returns the i-th entry, or NilAddress out of range.
func listGet(s []overlay.Address, i int32) overlay.Address {
	if i < 0 || int(i) >= len(s) {
		return overlay.NilAddress
	}
	return s[i]
}
`},
	{"listRandom", `// listRandom picks a uniformly random entry with the node's seeded
// source, or NilAddress when the list is empty.
func listRandom(ctx *core.Context, s []overlay.Address) overlay.Address {
	if len(s) == 0 {
		return overlay.NilAddress
	}
	return s[ctx.Rand().Intn(len(s))]
}
`},
	{"listContains", `// listContains reports whether a is in the list.
func listContains(s []overlay.Address, a overlay.Address) bool {
	for _, x := range s {
		if x == a {
			return true
		}
	}
	return false
}
`},
	{"ringInsert", `// ringInsert is the bounded leaf-set insertion: the result keeps the half
// closest clockwise and half closest counter-clockwise peers of self,
// clockwise side first, each side ordered by ring distance.
func ringInsert(selfKey overlay.Key, self overlay.Address, s []overlay.Address, a overlay.Address, half int32) []overlay.Address {
	if a == overlay.NilAddress || a == self || listContains(s, a) {
		return s
	}
	var cw, ccw []overlay.Address
	for _, x := range append(append([]overlay.Address(nil), s...), a) {
		xk := overlay.HashAddress(x)
		if selfKey.Distance(xk) <= xk.Distance(selfKey) {
			cw = ringSide(cw, x, func(k overlay.Key) uint32 { return selfKey.Distance(k) }, half)
		} else {
			ccw = ringSide(ccw, x, func(k overlay.Key) uint32 { return k.Distance(selfKey) }, half)
		}
	}
	return append(cw, ccw...)
}

// ringSide insertion-sorts a into one leaf-set side and bounds its size.
func ringSide(side []overlay.Address, a overlay.Address, dist func(overlay.Key) uint32, max int32) []overlay.Address {
	side = append(side, a)
	for i := len(side) - 1; i > 0; i-- {
		if dist(overlay.HashAddress(side[i])) < dist(overlay.HashAddress(side[i-1])) {
			side[i], side[i-1] = side[i-1], side[i]
		}
	}
	if int32(len(side)) > max {
		side = side[:max]
	}
	return side
}
`},
	{"tablePut", `// tablePut stores a at index i, ignoring out-of-range indices.
func tablePut(t []overlay.Address, i int32, a overlay.Address) {
	if i >= 0 && int(i) < len(t) {
		t[i] = a
	}
}
`},
	{"tableGet", `// tableGet returns the entry at index i, or NilAddress out of range.
func tableGet(t []overlay.Address, i int32) overlay.Address {
	if i < 0 || int(i) >= len(t) {
		return overlay.NilAddress
	}
	return t[i]
}
`},
	{"tableRemove", `// tableRemove clears every table slot holding a.
func tableRemove(t []overlay.Address, a overlay.Address) {
	for i, x := range t {
		if x == a {
			t[i] = overlay.NilAddress
		}
	}
}
`},
	{"tableClear", `// tableClear empties every table slot.
func tableClear(t []overlay.Address) {
	for i := range t {
		t[i] = overlay.NilAddress
	}
}
`},
	{"mapRemoveValue", `// mapRemoveValue deletes every entry whose value is a.
func mapRemoveValue(m map[overlay.Key]overlay.Address, a overlay.Address) {
	for k, v := range m {
		if v == a {
			delete(m, k)
		}
	}
}
`},
	{"keyPrefix", `// keyPrefix counts the leading base-2^bits digits two keys share.
func keyPrefix(a, b overlay.Key, bits int32) int32 {
	return int32(a.SharedPrefix(b, int(bits)))
}
`},
	{"keyDigit", `// keyDigit extracts the i-th base-2^bits digit of a key.
func keyDigit(k overlay.Key, i, bits int32) int32 {
	return int32(k.Digit(int(i), int(bits)))
}
`},
}

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
	g.loopVars = map[string]bool{}
	g.locals = map[string]string{}
	g.rewrites = map[string]string{}
	g.fwCount = 0
	g.pf("// transition%d implements: %s %s %s [locking %s;]\n", i, tr.Guard, tr.Kind, tr.Name, tr.Locking)
	switch tr.Kind {
	case dsl.TransAPI:
		g.pf("func (a *Agent) transition%d(ctx *core.Context, call *core.APICall) {\n\t_ = call\n", i)
	case dsl.TransTimer:
		g.pf("func (a *Agent) transition%d(ctx *core.Context) {\n", i)
	case dsl.TransRecv, dsl.TransForward:
		m := g.msgs[tr.Name]
		g.curMsg = &m
		g.pf("func (a *Agent) transition%d(ctx *core.Context, ev *core.MsgEvent) {\n", i)
		g.pf("\tm := ev.Msg.(*%s)\n\t_ = m\n", msgTypeName(tr.Name))
	}
	for _, st := range tr.Body {
		if err := g.stmt(st, 1); err != nil {
			return err
		}
	}
	g.pf("}\n\n")
	return nil
}
