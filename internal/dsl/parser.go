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
	spec, err := p.spec()
	if err != nil {
		return nil, err
	}
	if err := Validate(spec); err != nil {
		return nil, err
	}
	return spec, nil
}

type parser struct {
	toks []token
	i    int
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

func (p *parser) errf(pos Pos, format string, args ...any) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) expectIdent(what string) (token, error) {
	t := p.next()
	if t.kind != tokIdent {
		return t, p.errf(t.pos, "expected %s, got %q", what, t.text)
	}
	return t, nil
}

func (p *parser) expectPunct(s string) (token, error) {
	t := p.next()
	if t.kind != tokPunct || t.text != s {
		return t, p.errf(t.pos, "expected %q, got %q", s, t.text)
	}
	return t, nil
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

func (p *parser) spec() (*Spec, error) {
	spec := &Spec{Addressing: "hash", Trace: "off", Pos: p.cur().pos}
	if !p.acceptIdent("protocol") {
		return nil, p.errf(p.cur().pos, "specification must start with \"protocol\"")
	}
	name, err := p.expectIdent("protocol name")
	if err != nil {
		return nil, err
	}
	spec.Name = name.text
	if p.acceptIdent("uses") {
		base, err := p.expectIdent("base protocol name")
		if err != nil {
			return nil, err
		}
		spec.Uses = base.text
	}
	for p.cur().kind != tokEOF {
		t := p.cur()
		if t.kind != tokIdent {
			return nil, p.errf(t.pos, "expected section keyword, got %q", t.text)
		}
		switch {
		case t.text == "addressing":
			p.next()
			mode, err := p.expectIdent("addressing mode")
			if err != nil {
				return nil, err
			}
			if mode.text != "hash" && mode.text != "ip" {
				return nil, p.errf(mode.pos, "addressing must be hash or ip")
			}
			spec.Addressing = mode.text
		case strings.HasPrefix(t.text, "trace_"):
			p.next()
			lvl := strings.TrimPrefix(t.text, "trace_")
			switch lvl {
			case "off", "low", "med", "high":
				spec.Trace = lvl
			default:
				return nil, p.errf(t.pos, "unknown trace level %q", lvl)
			}
		case t.text == "constants":
			if err := p.constants(spec); err != nil {
				return nil, err
			}
		case t.text == "states":
			if err := p.states(spec); err != nil {
				return nil, err
			}
		case t.text == "neighbor_types":
			if err := p.neighborTypes(spec); err != nil {
				return nil, err
			}
		case t.text == "transports":
			if err := p.transports(spec); err != nil {
				return nil, err
			}
		case t.text == "messages":
			if err := p.messages(spec); err != nil {
				return nil, err
			}
		case t.text == "auxiliary_data" || t.text == "state_variables":
			if err := p.stateVars(spec); err != nil {
				return nil, err
			}
		case t.text == "routing":
			if err := p.routing(spec); err != nil {
				return nil, err
			}
		case t.text == "transitions":
			if err := p.transitions(spec); err != nil {
				return nil, err
			}
		default:
			return nil, p.errf(t.pos, "unknown section %q", t.text)
		}
	}
	return spec, nil
}

func (p *parser) openBlock(section string) error {
	p.next() // section keyword
	_, err := p.expectPunct("{")
	return err
}

func (p *parser) constants(spec *Spec) error {
	if err := p.openBlock("constants"); err != nil {
		return err
	}
	for !p.acceptPunct("}") {
		name, err := p.expectIdent("constant name")
		if err != nil {
			return err
		}
		if _, err := p.expectPunct("="); err != nil {
			return err
		}
		val := p.next()
		if val.kind != tokNumber && val.kind != tokIdent {
			return p.errf(val.pos, "expected constant value")
		}
		if _, err := p.expectPunct(";"); err != nil {
			return err
		}
		spec.Constants = append(spec.Constants, Constant{Name: name.text, Value: val.text, Pos: name.pos})
	}
	return nil
}

func (p *parser) states(spec *Spec) error {
	if err := p.openBlock("states"); err != nil {
		return err
	}
	for !p.acceptPunct("}") {
		name, err := p.expectIdent("state name")
		if err != nil {
			return err
		}
		if _, err := p.expectPunct(";"); err != nil {
			return err
		}
		spec.States = append(spec.States, name.text)
		spec.StatePos = append(spec.StatePos, name.pos)
	}
	return nil
}

func (p *parser) neighborTypes(spec *Spec) error {
	if err := p.openBlock("neighbor_types"); err != nil {
		return err
	}
	for !p.acceptPunct("}") {
		name, err := p.expectIdent("neighbor type name")
		if err != nil {
			return err
		}
		nt := NeighborType{Name: name.text, Pos: name.pos}
		if t := p.cur(); t.kind == tokNumber || (t.kind == tokIdent && t.text != "{") {
			nt.Max = p.next().text
		}
		if _, err := p.expectPunct("{"); err != nil {
			return err
		}
		for !p.acceptPunct("}") {
			f, err := p.field()
			if err != nil {
				return err
			}
			nt.Fields = append(nt.Fields, f)
		}
		spec.NeighborTypes = append(spec.NeighborTypes, nt)
	}
	return nil
}

func (p *parser) field() (Field, error) {
	typ, err := p.expectIdent("field type")
	if err != nil {
		return Field{}, err
	}
	name, err := p.expectIdent("field name")
	if err != nil {
		return Field{}, err
	}
	if _, err := p.expectPunct(";"); err != nil {
		return Field{}, err
	}
	return Field{Type: typ.text, Name: name.text, Pos: typ.pos}, nil
}

func (p *parser) transports(spec *Spec) error {
	if err := p.openBlock("transports"); err != nil {
		return err
	}
	for !p.acceptPunct("}") {
		kind, err := p.expectIdent("transport kind")
		if err != nil {
			return err
		}
		if kind.text != "TCP" && kind.text != "UDP" && kind.text != "SWP" {
			return p.errf(kind.pos, "transport kind must be TCP, UDP, or SWP")
		}
		name, err := p.expectIdent("transport name")
		if err != nil {
			return err
		}
		if _, err := p.expectPunct(";"); err != nil {
			return err
		}
		spec.Transports = append(spec.Transports, Transport{Kind: kind.text, Name: name.text, Pos: kind.pos})
	}
	return nil
}

func (p *parser) messages(spec *Spec) error {
	if err := p.openBlock("messages"); err != nil {
		return err
	}
	for !p.acceptPunct("}") {
		first, err := p.expectIdent("message name or transport")
		if err != nil {
			return err
		}
		m := Message{Pos: first.pos}
		if p.cur().kind == tokIdent {
			// Two identifiers: transport then name.
			m.Transport = first.text
			m.Name = p.next().text
		} else {
			m.Name = first.text
		}
		if _, err := p.expectPunct("{"); err != nil {
			return err
		}
		for !p.acceptPunct("}") {
			f, err := p.field()
			if err != nil {
				return err
			}
			m.Fields = append(m.Fields, f)
		}
		spec.Messages = append(spec.Messages, m)
	}
	return nil
}

// routing parses `routing <kind> { <role> = <variable>; ... }`. Roles and
// variable types are Validate's to check.
func (p *parser) routing(spec *Spec) error {
	kw := p.next() // routing
	if spec.Routing != nil {
		return p.errf(kw.pos, "second routing declaration (the first is at %s)", spec.Routing.Pos)
	}
	name, err := p.expectIdent("routing kind")
	if err != nil {
		return err
	}
	r := &Routing{Kind: routingKindNamed(name.text), Pos: kw.pos}
	if r.Kind == 0 {
		return p.errf(name.pos, "unknown routing kind %q (have ring, leafset, tree)", name.text)
	}
	if _, err := p.expectPunct("{"); err != nil {
		return err
	}
	for !p.acceptPunct("}") {
		role, err := p.expectIdent("routing role")
		if err != nil {
			return err
		}
		if _, err := p.expectPunct("="); err != nil {
			return err
		}
		v, err := p.expectIdent("variable name")
		if err != nil {
			return err
		}
		if _, err := p.expectPunct(";"); err != nil {
			return err
		}
		r.Binds = append(r.Binds, RoleBind{Role: role.text, Var: v.text, Pos: role.pos})
	}
	spec.Routing = r
	return nil
}

func (p *parser) stateVars(spec *Spec) error {
	nbrTypes := make(map[string]bool, len(spec.NeighborTypes))
	for _, nt := range spec.NeighborTypes {
		nbrTypes[nt.Name] = true
	}
	if err := p.openBlock("auxiliary_data"); err != nil {
		return err
	}
	for !p.acceptPunct("}") {
		t := p.cur()
		switch {
		case t.text == "timer" || (t.text == "periodic" && p.peek().text == "timer"):
			periodic := p.acceptIdent("periodic")
			p.next() // timer
			name, err := p.expectIdent("timer name")
			if err != nil {
				return err
			}
			v := StateVar{Kind: VarTimer, Name: name.text, Periodic: periodic, Pos: t.pos}
			if nt := p.cur(); nt.kind == tokNumber || (nt.kind == tokIdent && nt.text != ";") {
				v.Period = p.next().text
			}
			if _, err := p.expectPunct(";"); err != nil {
				return err
			}
			spec.StateVars = append(spec.StateVars, v)
		case t.text == "nodetable":
			p.next()
			name, err := p.expectIdent("node table name")
			if err != nil {
				return err
			}
			size := p.next()
			if size.kind != tokNumber && size.kind != tokIdent {
				return p.errf(size.pos, "nodetable %q needs a size (literal or constant)", name.text)
			}
			if _, err := p.expectPunct(";"); err != nil {
				return err
			}
			spec.StateVars = append(spec.StateVars, StateVar{
				Kind: VarTable, Type: "nodetable", Name: name.text, Max: size.text, Pos: t.pos,
			})
		case t.text == "keytable":
			p.next()
			name, err := p.expectIdent("keytable name")
			if err != nil {
				return err
			}
			v := StateVar{Kind: VarKeyTable, Type: "keytable", Name: name.text, KeyType: "key", Pos: t.pos}
			if p.acceptIdent("by") {
				kt, err := p.expectIdent("keytable key type")
				if err != nil {
					return err
				}
				if kt.text != "key" && kt.text != "node" && kt.text != "int" {
					return p.errf(kt.pos, "keytable %q is keyed by %q; a keytable is keyed by key, node or int", name.text, kt.text)
				}
				v.KeyType = kt.text
			}
			if _, err := p.expectPunct("{"); err != nil {
				return err
			}
			for !p.acceptPunct("}") {
				f, err := p.field()
				if err != nil {
					return err
				}
				v.Fields = append(v.Fields, f)
			}
			spec.StateVars = append(spec.StateVars, v)
		case t.text == "log" && p.peek().kind == tokIdent:
			p.next()
			msg, err := p.expectIdent("logged message")
			if err != nil {
				return err
			}
			name, err := p.expectIdent("log name")
			if err != nil {
				return err
			}
			size := p.next()
			if size.kind != tokNumber && size.kind != tokIdent {
				return p.errf(size.pos, "log %q needs a size (literal or constant)", name.text)
			}
			if _, err := p.expectPunct(";"); err != nil {
				return err
			}
			spec.StateVars = append(spec.StateVars, StateVar{
				Kind: VarLog, Type: msg.text, Name: name.text, Max: size.text, Pos: t.pos,
			})
		case t.text == "fail_detect" || nbrTypes[t.text]:
			fail := p.acceptIdent("fail_detect")
			typ, err := p.expectIdent("neighbor type")
			if err != nil {
				return err
			}
			if !nbrTypes[typ.text] {
				return p.errf(typ.pos, "unknown neighbor type %q", typ.text)
			}
			name, err := p.expectIdent("neighbor list name")
			if err != nil {
				return err
			}
			v := StateVar{Kind: VarNeighborList, Type: typ.text, Name: name.text, FailDetect: fail, Pos: t.pos}
			if mx := p.cur(); mx.kind == tokNumber || (mx.kind == tokIdent && mx.text != ";") {
				v.Max = p.next().text
			}
			if _, err := p.expectPunct(";"); err != nil {
				return err
			}
			spec.StateVars = append(spec.StateVars, v)
		default:
			typ, err := p.expectIdent("variable type")
			if err != nil {
				return err
			}
			if !scalarTypes[typ.text] && !stateVarTypes[typ.text] {
				return p.errf(typ.pos, "unknown type %q", typ.text)
			}
			name, err := p.expectIdent("variable name")
			if err != nil {
				return err
			}
			if _, err := p.expectPunct(";"); err != nil {
				return err
			}
			spec.StateVars = append(spec.StateVars, StateVar{Kind: VarPlain, Type: typ.text, Name: name.text, Pos: typ.pos})
		}
	}
	return nil
}

// --- transitions -------------------------------------------------------------

var apiNames = map[string]bool{
	"init": true, "route": true, "routeIP": true, "multicast": true,
	"anycast": true, "collect": true, "create_group": true, "join": true,
	"leave": true, "error": true, "notify": true, "upcall_ext": true,
	"downcall_ext": true,
}

func (p *parser) transitions(spec *Spec) error {
	if err := p.openBlock("transitions"); err != nil {
		return err
	}
	for !p.acceptPunct("}") {
		tr, err := p.transition()
		if err != nil {
			return err
		}
		spec.Transitions = append(spec.Transitions, tr)
	}
	return nil
}

func (p *parser) transition() (Transition, error) {
	pos := p.cur().pos
	guard, err := p.stateGuard()
	if err != nil {
		return Transition{}, err
	}
	tr := Transition{Guard: guard, Locking: "write", Pos: pos}
	kw, err := p.expectIdent("transition kind")
	if err != nil {
		return Transition{}, err
	}
	switch kw.text {
	case "API":
		tr.Kind = TransAPI
		name, err := p.expectIdent("API name")
		if err != nil {
			return Transition{}, err
		}
		if !apiNames[name.text] {
			return Transition{}, p.errf(name.pos, "unknown API %q", name.text)
		}
		tr.Name = name.text
	case "timer":
		tr.Kind = TransTimer
		name, err := p.expectIdent("timer name")
		if err != nil {
			return Transition{}, err
		}
		tr.Name = name.text
	case "recv", "forward":
		if kw.text == "recv" {
			tr.Kind = TransRecv
		} else {
			tr.Kind = TransForward
		}
		name, err := p.expectIdent("message name")
		if err != nil {
			return Transition{}, err
		}
		tr.Name = name.text
	default:
		return Transition{}, p.errf(kw.pos, "expected API, timer, recv, or forward; got %q", kw.text)
	}
	// Options: [locking read;]
	if p.acceptPunct("[") {
		for !p.acceptPunct("]") {
			opt, err := p.expectIdent("transition option")
			if err != nil {
				return Transition{}, err
			}
			switch opt.text {
			case "locking":
				mode, err := p.expectIdent("locking mode")
				if err != nil {
					return Transition{}, err
				}
				if mode.text != "read" && mode.text != "write" {
					return Transition{}, p.errf(mode.pos, "locking must be read or write")
				}
				tr.Locking = mode.text
			default:
				return Transition{}, p.errf(opt.pos, "unknown option %q", opt.text)
			}
			if _, err := p.expectPunct(";"); err != nil {
				return Transition{}, err
			}
		}
	}
	if _, err := p.expectPunct("{"); err != nil {
		return Transition{}, err
	}
	body, err := p.block()
	if err != nil {
		return Transition{}, err
	}
	tr.Body = body
	return tr, nil
}

// stateGuard parses "any", "name", "(a|b)", "!(a|b)", "a|b".
func (p *parser) stateGuard() (StateGuard, error) {
	if p.acceptIdent("any") {
		return GuardAny{}, nil
	}
	if p.acceptPunct("!") {
		inner, err := p.stateGuard()
		if err != nil {
			return nil, err
		}
		return GuardNot{Inner: inner}, nil
	}
	if p.acceptPunct("(") {
		inner, err := p.stateList()
		if err != nil {
			return nil, err
		}
		if _, err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return inner, nil
	}
	return p.stateList()
}

func (p *parser) stateList() (StateGuard, error) {
	name, err := p.expectIdent("state name")
	if err != nil {
		return nil, err
	}
	g := GuardStates{States: []string{name.text}}
	for p.acceptPunct("|") {
		name, err := p.expectIdent("state name")
		if err != nil {
			return nil, err
		}
		g.States = append(g.States, name.text)
	}
	return g, nil
}

// --- statements ----------------------------------------------------------------

// block parses statements until the matching close brace (already inside).
func (p *parser) block() ([]Stmt, error) {
	var out []Stmt
	for {
		if p.acceptPunct("}") {
			return out, nil
		}
		if p.cur().kind == tokEOF {
			return nil, p.errf(p.cur().pos, "unterminated block")
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
}

func (p *parser) stmt() (Stmt, error) {
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
				return &ReturnStmt{Pos: t.pos}, nil
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
				val, err := p.expr()
				if err != nil {
					return nil, err
				}
				if _, err := p.expectPunct(";"); err != nil {
					return nil, err
				}
				return &AssignStmt{Target: t.text, Value: val, Pos: t.pos}, nil
			}
		}
	}
	return nil, p.errf(t.pos, "%q does not start a statement", t.text)
}

// lvalueAssign: <entry or field(name)> = expr ;
func (p *parser) lvalueAssign() (Stmt, error) {
	pos := p.cur().pos
	lhs, err := p.primaryExpr()
	if err != nil {
		return nil, err
	}
	st := &AssignStmt{Pos: pos}
	switch lhs := lhs.(type) {
	case EntryExpr:
		st.Entry = &lhs
	case CallExpr:
		if id, ok := fieldName(lhs); ok {
			st.Target, st.Field = id, true
			break
		}
		return nil, p.errf(pos, "cannot assign to %s", lhs)
	default:
		return nil, p.errf(pos, "cannot assign to %s", lhs)
	}
	if _, err := p.expectPunct("="); err != nil {
		return nil, err
	}
	if st.Value, err = p.expr(); err != nil {
		return nil, err
	}
	if _, err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	return st, nil
}

// fieldName returns x when e is field(x).
func fieldName(e CallExpr) (string, bool) {
	if e.Fn != "field" || len(e.Args) != 1 {
		return "", false
	}
	id, ok := e.Args[0].(Ident)
	return id.Name, ok
}

func (p *parser) ifStmt() (Stmt, error) {
	pos := p.next().pos // "if"
	if _, err := p.expectPunct("("); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if _, err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	then, err := p.block()
	if err != nil {
		return nil, err
	}
	st := &IfStmt{Cond: cond, Then: then, Pos: pos}
	if p.acceptIdent("else") {
		if p.cur().kind == tokIdent && p.cur().text == "if" {
			inner, err := p.ifStmt()
			if err != nil {
				return nil, err
			}
			st.Else = []Stmt{inner}
			return st, nil
		}
		if _, err := p.expectPunct("{"); err != nil {
			return nil, err
		}
		els, err := p.block()
		if err != nil {
			return nil, err
		}
		st.Else = els
	}
	return st, nil
}

// localStmt: <type> <name> [= expr] ;
func (p *parser) localStmt() (Stmt, error) {
	typ := p.next() // type keyword
	name, err := p.expectIdent("local variable name")
	if err != nil {
		return nil, err
	}
	st := &LocalStmt{Type: typ.text, Name: name.text, Pos: typ.pos}
	if p.acceptPunct("=") {
		val, err := p.expr()
		if err != nil {
			return nil, err
		}
		st.Value = val
	}
	if _, err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	return st, nil
}

// foreachStmt: foreach (k in <collection expr>) { ... }
func (p *parser) foreachStmt() (Stmt, error) {
	pos := p.next().pos // "foreach"
	if _, err := p.expectPunct("("); err != nil {
		return nil, err
	}
	v, err := p.expectIdent("loop variable")
	if err != nil {
		return nil, err
	}
	if !p.acceptIdent("in") {
		return nil, p.errf(p.cur().pos, "expected \"in\"")
	}
	list, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if _, err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	return &ForeachStmt{Var: v.text, List: list, Body: body, Pos: pos}, nil
}

// sendStmt: send msg(dest, field=value, ...) [via pri]; the forms that send
// through the layer below, route msg(key, ...), multicast msg(group, ...)
// and collect msg(group, ...);
// and log msg(log, field=value, ...), which appends to a bounded log.
func (p *parser) sendStmt() (Stmt, error) {
	verb := p.next() // "send", "route", "multicast", "collect" or "log"
	pos := verb.pos
	msg, err := p.expectIdent("message name")
	if err != nil {
		return nil, err
	}
	if _, err := p.expectPunct("("); err != nil {
		return nil, err
	}
	dest, err := p.expr()
	if err != nil {
		return nil, err
	}
	st := &CallStmt{Fn: verb.text, Msg: msg.text, Args: []Expr{dest}, Pos: pos}
	for p.acceptPunct(",") {
		name, err := p.expectIdent("field name")
		if err != nil {
			return nil, err
		}
		if _, err := p.expectPunct("="); err != nil {
			return nil, err
		}
		val, err := p.expr()
		if err != nil {
			return nil, err
		}
		st.Fields = append(st.Fields, FieldInit{Name: name.text, Value: val})
	}
	if _, err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if verb.text == "send" && p.acceptIdent("via") {
		if st.Via, err = p.expr(); err != nil {
			return nil, err
		}
	}
	if _, err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *parser) callStmt() (Stmt, error) {
	name := p.next() // ident
	pos := name.pos
	if _, err := p.expectPunct("("); err != nil {
		return nil, err
	}
	st := &CallStmt{Fn: name.text, Pos: pos}
	if !p.acceptPunct(")") {
		for {
			arg, err := p.expr()
			if err != nil {
				return nil, err
			}
			st.Args = append(st.Args, arg)
			if p.acceptPunct(")") {
				break
			}
			if _, err := p.expectPunct(","); err != nil {
				return nil, err
			}
		}
	}
	if _, err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	return st, nil
}

// --- expressions ----------------------------------------------------------------

func (p *parser) expr() (Expr, error) { return p.orExpr() }

func (p *parser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokPunct && p.cur().text == "||" {
		p.next()
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = BinExpr{Op: "||", L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr() (Expr, error) {
	l, err := p.cmpExpr()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokPunct && p.cur().text == "&&" {
		p.next()
		r, err := p.cmpExpr()
		if err != nil {
			return nil, err
		}
		l = BinExpr{Op: "&&", L: l, R: r}
	}
	return l, nil
}

func (p *parser) cmpExpr() (Expr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	if t := p.cur(); t.kind == tokPunct {
		switch t.text {
		case "==", "!=", "<", ">", "<=", ">=":
			p.next()
			r, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			return BinExpr{Op: t.text, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) addExpr() (Expr, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for t := p.cur(); t.kind == tokPunct && (t.text == "+" || t.text == "-"); t = p.cur() {
		p.next()
		r, err := p.mulExpr()
		if err != nil {
			return nil, err
		}
		l = BinExpr{Op: t.text, L: l, R: r}
	}
	return l, nil
}

func (p *parser) mulExpr() (Expr, error) {
	l, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for t := p.cur(); t.kind == tokPunct && (t.text == "*" || t.text == "/" || t.text == "%"); t = p.cur() {
		p.next()
		r, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		l = BinExpr{Op: t.text, L: l, R: r}
	}
	return l, nil
}

func (p *parser) unaryExpr() (Expr, error) {
	if p.acceptPunct("!") {
		inner, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return NotExpr{Inner: inner}, nil
	}
	if p.acceptPunct("-") {
		// A negative number literal, or 0 - x.
		if t := p.cur(); t.kind == tokNumber {
			p.next()
			return IntLit{Value: "-" + t.text}, nil
		}
		inner, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return BinExpr{Op: "-", L: IntLit{Value: "0"}, R: inner}, nil
	}
	return p.primaryExpr()
}

func (p *parser) primaryExpr() (Expr, error) {
	t := p.next()
	switch t.kind {
	case tokNumber:
		return IntLit{Value: t.text}, nil
	case tokIdent:
		if p.cur().kind == tokPunct && p.cur().text == "(" {
			p.next()
			call := CallExpr{Fn: t.text}
			if !p.acceptPunct(")") {
				for {
					arg, err := p.expr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, arg)
					if p.acceptPunct(")") {
						break
					}
					if _, err := p.expectPunct(","); err != nil {
						return nil, err
					}
				}
			}
			return call, nil
		}
		if p.acceptPunct("[") {
			k, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			if _, err := p.expectPunct("."); err != nil {
				return nil, err
			}
			f, err := p.expectIdent("keytable field")
			if err != nil {
				return nil, err
			}
			return EntryExpr{Table: t.text, Key: k, Field: f.text}, nil
		}
		return Ident{Name: t.text}, nil
	case tokPunct:
		if t.text == "(" {
			inner, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return inner, nil
		}
	}
	return nil, p.errf(t.pos, "unexpected %q in expression", t.text)
}
