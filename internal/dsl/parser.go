package dsl

import (
	"fmt"
	"strings"
)

// Parse parses a .mac specification.
func Parse(src string) (*Spec, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	spec := p.spec()
	if p.err == nil {
		if err := Validate(spec); err != nil {
			return nil, err
		}
		return spec, nil
	}
	return nil, p.err
}

// parser is a recursive-descent parser with one sticky error: fail keeps
// the first diagnostic and moves to the EOF token, so from then on every
// accept fails, every expect does nothing and every loop over more ends.
// The parse functions return only their values; Parse returns the error.
type parser struct {
	toks []token
	i    int
	err  *Error
}

func (p *parser) cur() token { return p.toks[p.i] }
func (p *parser) peek() token {
	if p.i+1 < len(p.toks) {
		return p.toks[p.i+1]
	}
	return p.toks[len(p.toks)-1]
}

func (p *parser) next() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

// fail records the first error and skips to the end of the input; later
// errors are consequences of the first.
func (p *parser) fail(pos Pos, format string, args ...any) {
	if p.err == nil {
		p.err = &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
		p.i = len(p.toks) - 1
	}
}

// more reports whether a list goes on: false once closer is accepted or an
// error is recorded.
func (p *parser) more(closer string) bool {
	return !p.acceptPunct(closer) && p.err == nil
}

func (p *parser) expectIdent(what string) token {
	t := p.next()
	if t.kind != tokIdent {
		p.fail(t.pos, "expected %s, got %q", what, t.text)
	}
	return t
}

func (p *parser) expectPunct(s string) token {
	t := p.next()
	if t.kind != tokPunct || t.text != s {
		p.fail(t.pos, "expected %q, got %q", s, t.text)
	}
	return t
}

func (p *parser) acceptPunct(s string) bool {
	if p.cur().kind == tokPunct && p.cur().text == s {
		p.i++
		return true
	}
	return false
}

func (p *parser) acceptIdent(s string) bool {
	if p.cur().kind == tokIdent && p.cur().text == s {
		p.i++
		return true
	}
	return false
}

var scalarTypes = map[string]bool{
	"int": true, "short": true, "char": true, "double": true, "time": true, "bool": true, "key": true,
	"macedon_key": true, "node": true, "buffer": true, "string": true,
	"nodeset": true, "keyset": true, "intset": true, "timeset": true, "tickets": true,
}

// stateVarTypes are the additional types legal only for auxiliary_data
// entries (not message fields or locals).
var stateVarTypes = map[string]bool{
	"keymap":   true, // key → node map (Pastry's location cache)
	"blocks":   true, // a stream's block store and its summary (Bullet)
	"clusters": true, // per-layer cluster tables (NICE)
	"dedup":    true, // a bounded set of packet keys
}

func (p *parser) spec() *Spec {
	spec := &Spec{Addressing: "hash", Trace: "off", Pos: p.cur().pos}
	if !p.acceptIdent("protocol") {
		p.fail(p.cur().pos, "specification must start with \"protocol\"")
	}
	spec.Name = p.expectIdent("protocol name").text
	if p.acceptIdent("uses") {
		base := p.expectIdent("base protocol name")
		spec.Uses, spec.UsesPos = base.text, base.pos
		if p.acceptPunct("(") {
			for p.more(")") {
				if len(spec.BaseParams) > 0 {
					p.expectPunct(",")
				}
				name := p.expectIdent("base param name")
				p.expectPunct("=")
				val := p.next()
				spec.BaseParams = append(spec.BaseParams, Constant{Name: name.text, Value: val.text, Pos: name.pos})
			}
		}
	}
	for p.cur().kind != tokEOF {
		t := p.cur()
		switch {
		case t.kind != tokIdent:
			p.fail(t.pos, "expected section keyword, got %q", t.text)
		case t.text == "addressing":
			p.next()
			mode := p.expectIdent("addressing mode")
			if mode.text != "hash" && mode.text != "ip" {
				p.fail(mode.pos, "addressing must be hash or ip")
			}
			spec.Addressing = mode.text
		case strings.HasPrefix(t.text, "trace_"):
			p.next()
			lvl := strings.TrimPrefix(t.text, "trace_")
			switch lvl {
			case "off", "low", "med", "high":
				spec.Trace = lvl
			default:
				p.fail(t.pos, "unknown trace level %q", lvl)
			}
		case t.text == "constants":
			p.constants(spec)
		case t.text == "states":
			p.states(spec)
		case t.text == "neighbor_types":
			p.neighborTypes(spec)
		case t.text == "transports":
			p.transports(spec)
		case t.text == "messages":
			p.messages(spec)
		case t.text == "auxiliary_data" || t.text == "state_variables":
			p.stateVars(spec)
		case t.text == "routing":
			p.routing(spec)
		case t.text == "transitions":
			p.transitions(spec)
		default:
			p.fail(t.pos, "unknown section %q", t.text)
		}
	}
	return spec
}

// openBlock consumes a section keyword and its "{".
func (p *parser) openBlock() {
	p.next()
	p.expectPunct("{")
}

func (p *parser) constants(spec *Spec) {
	p.openBlock()
	for p.more("}") {
		name := p.expectIdent("constant name")
		p.expectPunct("=")
		val := p.next()
		if val.kind != tokNumber && val.kind != tokIdent {
			p.fail(val.pos, "expected constant value")
		}
		p.expectPunct(";")
		spec.Constants = append(spec.Constants, Constant{Name: name.text, Value: val.text, Pos: name.pos})
	}
}

func (p *parser) states(spec *Spec) {
	p.openBlock()
	for p.more("}") {
		name := p.expectIdent("state name")
		p.expectPunct(";")
		spec.States = append(spec.States, name.text)
		spec.StatePos = append(spec.StatePos, name.pos)
	}
}

func (p *parser) neighborTypes(spec *Spec) {
	p.openBlock()
	for p.more("}") {
		name := p.expectIdent("neighbor type name")
		spec.NeighborTypes = append(spec.NeighborTypes,
			NeighborType{Name: name.text, Max: p.optionalMax(), Fields: p.fields(), Pos: name.pos})
	}
}

// fields parses a braced list of "<type> <name>;" declarations.
func (p *parser) fields() []Field {
	var out []Field
	p.expectPunct("{")
	for p.more("}") {
		typ := p.expectIdent("field type")
		name := p.expectIdent("field name")
		p.expectPunct(";")
		out = append(out, Field{Type: typ.text, Name: name.text, Pos: typ.pos})
	}
	return out
}

func (p *parser) transports(spec *Spec) {
	p.openBlock()
	for p.more("}") {
		kind := p.expectIdent("transport kind")
		if kind.text != "TCP" && kind.text != "UDP" && kind.text != "SWP" {
			p.fail(kind.pos, "transport kind must be TCP, UDP, or SWP")
		}
		name := p.expectIdent("transport name")
		p.expectPunct(";")
		spec.Transports = append(spec.Transports, Transport{Kind: kind.text, Name: name.text, Pos: kind.pos})
	}
}

func (p *parser) messages(spec *Spec) {
	p.openBlock()
	for p.more("}") {
		first := p.expectIdent("message name or transport")
		m := Message{Pos: first.pos}
		if p.cur().kind == tokIdent {
			// Two identifiers: transport then name.
			m.Transport = first.text
			m.Name = p.next().text
		} else {
			m.Name = first.text
		}
		m.Fields = p.fields()
		spec.Messages = append(spec.Messages, m)
	}
}

// routing parses `routing <kind> { <role> = <variable>; ... }`. Roles and
// variable types are Validate's to check.
func (p *parser) routing(spec *Spec) {
	kw := p.next() // routing
	if spec.Routing != nil {
		p.fail(kw.pos, "second routing declaration (the first is at %s)", spec.Routing.Pos)
	}
	name := p.expectIdent("routing kind")
	r := &Routing{Kind: routingKindNamed(name.text), Pos: kw.pos}
	if r.Kind == 0 {
		p.fail(name.pos, "unknown routing kind %q (have ring, leafset, tree)", name.text)
	}
	p.expectPunct("{")
	for p.more("}") {
		role := p.expectIdent("routing role")
		p.expectPunct("=")
		v := p.expectIdent("variable name")
		p.expectPunct(";")
		r.Binds = append(r.Binds, RoleBind{Role: role.text, Var: v.text, Pos: role.pos})
	}
	spec.Routing = r
}

// size reads a nodetable's or a log's size: a literal or a constant.
func (p *parser) size(what, name string) string {
	t := p.next()
	if t.kind != tokNumber && t.kind != tokIdent {
		p.fail(t.pos, "%s %q needs a size (literal or constant)", what, name)
	}
	return t.text
}

// optionalMax reads a declaration's optional bound or period: a literal or
// a constant.
func (p *parser) optionalMax() string {
	if t := p.cur(); t.kind == tokNumber || t.kind == tokIdent {
		return p.next().text
	}
	return ""
}

func (p *parser) stateVars(spec *Spec) {
	nbrTypes := make(map[string]bool, len(spec.NeighborTypes))
	for _, nt := range spec.NeighborTypes {
		nbrTypes[nt.Name] = true
	}
	p.openBlock()
	for p.more("}") {
		t := p.cur()
		var v StateVar
		switch {
		case t.text == "timer" || (t.text == "periodic" && p.peek().text == "timer"):
			periodic := p.acceptIdent("periodic")
			p.next() // timer
			name := p.expectIdent("timer name")
			v = StateVar{Kind: VarTimer, Name: name.text, Periodic: periodic, Period: p.optionalMax(), Pos: t.pos}
			p.expectPunct(";")
		case t.text == "nodetable":
			p.next()
			name := p.expectIdent("node table name")
			v = StateVar{Kind: VarTable, Type: "nodetable", Name: name.text, Max: p.size("nodetable", name.text), Pos: t.pos}
			p.expectPunct(";")
		case t.text == "keytable":
			p.next()
			name := p.expectIdent("keytable name")
			v = StateVar{Kind: VarKeyTable, Type: "keytable", Name: name.text, KeyType: "key", Pos: t.pos}
			if p.acceptIdent("by") {
				kt := p.expectIdent("keytable key type")
				if kt.text != "key" && kt.text != "node" && kt.text != "int" {
					p.fail(kt.pos, "keytable %q is keyed by %q; a keytable is keyed by key, node or int", name.text, kt.text)
				}
				v.KeyType = kt.text
			}
			v.Fields = p.fields()
		case t.text == "log" && p.peek().kind == tokIdent:
			p.next()
			msg := p.expectIdent("logged message")
			name := p.expectIdent("log name")
			v = StateVar{Kind: VarLog, Type: msg.text, Name: name.text, Max: p.size("log", name.text), Pos: t.pos}
			p.expectPunct(";")
		case t.text == "fail_detect" || nbrTypes[t.text]:
			fail := p.acceptIdent("fail_detect")
			typ := p.expectIdent("neighbor type")
			if !nbrTypes[typ.text] {
				p.fail(typ.pos, "unknown neighbor type %q", typ.text)
			}
			name := p.expectIdent("neighbor list name")
			v = StateVar{Kind: VarNeighborList, Type: typ.text, Name: name.text, FailDetect: fail, Max: p.optionalMax(), Pos: t.pos}
			p.expectPunct(";")
		default:
			typ := p.expectIdent("variable type")
			if !scalarTypes[typ.text] && !stateVarTypes[typ.text] {
				p.fail(typ.pos, "unknown type %q", typ.text)
			}
			name := p.expectIdent("variable name")
			p.expectPunct(";")
			v = StateVar{Kind: VarPlain, Type: typ.text, Name: name.text, Pos: typ.pos}
		}
		spec.StateVars = append(spec.StateVars, v)
	}
}

// --- transitions -------------------------------------------------------------

var apiNames = map[string]bool{
	"init": true, "route": true, "routeIP": true, "multicast": true,
	"anycast": true, "collect": true, "create_group": true, "join": true,
	"leave": true, "error": true, "notify": true, "upcall_ext": true,
	"downcall_ext": true,
}

func (p *parser) transitions(spec *Spec) {
	p.openBlock()
	for p.more("}") {
		spec.Transitions = append(spec.Transitions, p.transition())
	}
}

func (p *parser) transition() Transition {
	pos := p.cur().pos
	tr := Transition{Guard: p.stateGuard(), Locking: "write", Pos: pos}
	kw := p.expectIdent("transition kind")
	switch kw.text {
	case "API":
		tr.Kind = TransAPI
		name := p.expectIdent("API name")
		if !apiNames[name.text] {
			p.fail(name.pos, "unknown API %q", name.text)
		}
		tr.Name = name.text
	case "timer":
		tr.Kind = TransTimer
		tr.Name = p.expectIdent("timer name").text
	case "recv", "forward":
		if kw.text == "recv" {
			tr.Kind = TransRecv
		} else {
			tr.Kind = TransForward
		}
		tr.Name = p.expectIdent("message name").text
	default:
		p.fail(kw.pos, "expected API, timer, recv, or forward; got %q", kw.text)
	}
	// Options: [locking read;]
	if p.acceptPunct("[") {
		for p.more("]") {
			opt := p.expectIdent("transition option")
			switch opt.text {
			case "locking":
				mode := p.expectIdent("locking mode")
				if mode.text != "read" && mode.text != "write" {
					p.fail(mode.pos, "locking must be read or write")
				}
				tr.Locking = mode.text
			default:
				p.fail(opt.pos, "unknown option %q", opt.text)
			}
			p.expectPunct(";")
		}
	}
	p.expectPunct("{")
	tr.Body = p.block()
	return tr
}

// stateGuard parses "any", "name", "(a|b)", "!(a|b)", "a|b".
func (p *parser) stateGuard() StateGuard {
	if p.acceptIdent("any") {
		return GuardAny{}
	}
	if p.acceptPunct("!") {
		return GuardNot{Inner: p.stateGuard()}
	}
	if p.acceptPunct("(") {
		inner := p.stateList()
		p.expectPunct(")")
		return inner
	}
	return p.stateList()
}

func (p *parser) stateList() StateGuard {
	g := GuardStates{States: []string{p.expectIdent("state name").text}}
	for p.acceptPunct("|") {
		g.States = append(g.States, p.expectIdent("state name").text)
	}
	return g
}

// --- statements ----------------------------------------------------------------

// block parses statements until the matching close brace (already inside).
func (p *parser) block() []Stmt {
	var out []Stmt
	for p.more("}") {
		if p.cur().kind == tokEOF {
			p.fail(p.cur().pos, "unterminated block")
			break
		}
		out = append(out, p.stmt())
	}
	return out
}

func (p *parser) stmt() Stmt {
	t := p.cur()
	if t.kind == tokIdent {
		switch t.text {
		case "if":
			return p.ifStmt()
		case "send":
			return p.sendStmt()
		case "route", "multicast", "collect", "log":
			if p.peek().kind == tokIdent {
				return p.sendStmt()
			}
		case "foreach":
			return p.foreachStmt()
		case "return":
			if p.peek().kind == tokPunct && p.peek().text == ";" {
				p.next()
				p.next()
				return &ReturnStmt{Pos: t.pos}
			}
		}
		// Local declaration: "<type> <name> [= expr] ;".
		if scalarTypes[t.text] && p.peek().kind == tokIdent {
			return p.localStmt()
		}
		if p.peek().kind == tokPunct {
			switch p.peek().text {
			case "(":
				if t.text == "field" {
					// An assignment to a field of the message: "field(f) = v;".
					return p.lvalueAssign()
				}
				return p.callStmt()
			case "[":
				// An assignment to a keytable entry's field: "groups[g].f = v;".
				return p.lvalueAssign()
			case "=":
				p.next()
				p.next()
				st := &AssignStmt{Target: t.text, Value: p.expr(), Pos: t.pos}
				p.expectPunct(";")
				return st
			}
		}
	}
	p.fail(t.pos, "%q does not start a statement", t.text)
	return nil
}

// lvalueAssign: <entry or field(name)> = expr ;
func (p *parser) lvalueAssign() Stmt {
	pos := p.cur().pos
	st := &AssignStmt{Pos: pos}
	switch lhs := p.primaryExpr().(type) {
	case EntryExpr:
		st.Entry = &lhs
	case CallExpr:
		if id, ok := lhs.FieldName(); ok {
			st.Target, st.Field = id, true
			break
		}
		p.fail(pos, "cannot assign to %s", lhs)
	default:
		p.fail(pos, "cannot assign to %s", lhs)
	}
	p.expectPunct("=")
	st.Value = p.expr()
	p.expectPunct(";")
	return st
}

func (p *parser) ifStmt() Stmt {
	pos := p.next().pos // "if"
	p.expectPunct("(")
	st := &IfStmt{Cond: p.expr(), Pos: pos}
	p.expectPunct(")")
	p.expectPunct("{")
	st.Then = p.block()
	if p.acceptIdent("else") {
		if p.cur().kind == tokIdent && p.cur().text == "if" {
			st.Else = []Stmt{p.ifStmt()}
			return st
		}
		p.expectPunct("{")
		st.Else = p.block()
	}
	return st
}

// localStmt: <type> <name> [= expr] ;
func (p *parser) localStmt() Stmt {
	typ := p.next() // type keyword
	name := p.expectIdent("local variable name")
	st := &LocalStmt{Type: typ.text, Name: name.text, Pos: typ.pos}
	if p.acceptPunct("=") {
		st.Value = p.expr()
	}
	p.expectPunct(";")
	return st
}

// foreachStmt: foreach (k in <collection expr>) { ... }
func (p *parser) foreachStmt() Stmt {
	pos := p.next().pos // "foreach"
	p.expectPunct("(")
	st := &ForeachStmt{Var: p.expectIdent("loop variable").text, Pos: pos}
	if !p.acceptIdent("in") {
		p.fail(p.cur().pos, "expected \"in\"")
	}
	st.List = p.expr()
	p.expectPunct(")")
	p.expectPunct("{")
	st.Body = p.block()
	return st
}

// sendStmt: send msg(dest, field=value, ...) [via pri]; the forms that send
// through the layer below, route msg(key, ...), multicast msg(group, ...)
// and collect msg(group, ...);
// and log msg(log, field=value, ...), which appends to a bounded log.
func (p *parser) sendStmt() Stmt {
	verb := p.next() // "send", "route", "multicast", "collect" or "log"
	st := &CallStmt{Fn: verb.text, Msg: p.expectIdent("message name").text, Pos: verb.pos}
	p.expectPunct("(")
	st.Args = []Expr{p.expr()}
	for p.acceptPunct(",") {
		name := p.expectIdent("field name")
		p.expectPunct("=")
		st.Fields = append(st.Fields, FieldInit{Name: name.text, Value: p.expr()})
	}
	p.expectPunct(")")
	if verb.text == "send" && p.acceptIdent("via") {
		st.Via = p.expr()
	}
	p.expectPunct(";")
	return st
}

func (p *parser) callStmt() Stmt {
	name := p.next() // ident
	p.expectPunct("(")
	st := &CallStmt{Fn: name.text, Args: p.args(), Pos: name.pos}
	p.expectPunct(";")
	return st
}

// args parses a call's comma-separated arguments up to its ")" (the "(" is
// already consumed).
func (p *parser) args() []Expr {
	var out []Expr
	for p.more(")") {
		if len(out) > 0 {
			p.expectPunct(",")
		}
		out = append(out, p.expr())
	}
	return out
}

// --- expressions ----------------------------------------------------------------

// binaryLevels gives each binary operator its binding level, from the
// loosest (1) to the tightest. Every level is left-associative except
// comparison, which takes one operator: "a < b < c" does not parse.
var binaryLevels = map[string]int{
	"||": 1,
	"&&": 2,
	"==": cmpLevel, "!=": cmpLevel, "<": cmpLevel, ">": cmpLevel, "<=": cmpLevel, ">=": cmpLevel,
	"+": 4, "-": 4,
	"*": tightestLevel, "/": tightestLevel, "%": tightestLevel,
}

const cmpLevel, tightestLevel = 3, 5

func (p *parser) expr() Expr { return p.binary(1) }

// binary parses an expression whose operators bind at level min or
// tighter, by precedence climbing: an operator's right operand takes only
// tighter operators, and after it the loop takes only operators no tighter
// than it (only looser ones after a comparison).
func (p *parser) binary(min int) Expr {
	l := p.unaryExpr()
	for max := tightestLevel; ; {
		t := p.cur()
		lv := binaryLevels[t.text]
		if lv < min || lv > max {
			return l
		}
		p.next()
		l = BinExpr{Op: t.text, L: l, R: p.binary(lv + 1)}
		max = lv
		if lv == cmpLevel {
			max-- // a comparison does not chain
		}
	}
}

func (p *parser) unaryExpr() Expr {
	if p.acceptPunct("!") {
		return NotExpr{Inner: p.unaryExpr()}
	}
	if p.acceptPunct("-") {
		// A negative number literal, or 0 - x.
		if t := p.cur(); t.kind == tokNumber {
			p.next()
			return IntLit{Value: "-" + t.text}
		}
		return BinExpr{Op: "-", L: IntLit{Value: "0"}, R: p.unaryExpr()}
	}
	return p.primaryExpr()
}

func (p *parser) primaryExpr() Expr {
	t := p.next()
	switch t.kind {
	case tokNumber:
		return IntLit{Value: t.text}
	case tokIdent:
		if p.acceptPunct("(") {
			return CallExpr{Fn: t.text, Args: p.args()}
		}
		if p.acceptPunct("[") {
			e := EntryExpr{Table: t.text, Key: p.expr()}
			p.expectPunct("]")
			p.expectPunct(".")
			e.Field = p.expectIdent("keytable field").text
			return e
		}
		return Ident{Name: t.text}
	case tokPunct:
		if t.text == "(" {
			inner := p.expr()
			p.expectPunct(")")
			return inner
		}
	}
	p.fail(t.pos, "unexpected %q in expression", t.text)
	return nil
}
