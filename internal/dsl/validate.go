package dsl

import (
	"fmt"
	gotoken "go/token"
	"slices"
	"strconv"
	"strings"
)

// Validate performs the semantic checks the MACEDON translator applies
// before code generation: every referenced state, message, timer, transport,
// and neighbor type must be declared, names must be unique, and layered
// specifications must not bind messages to transports (their traffic rides
// the base protocol), each param the header sets on its base must be set
// once, to an int, a keytable's fields must be distinct and typed, and a
// routing declaration must bind each of its roles
// once, to a variable of a type the role takes. Every error it returns is an
// *Error positioned at the offending declaration. Transition bodies are
// checked where internal/codegen translates them, which resolves every name
// and argument they use.
func Validate(s *Spec) error {
	if s.Name == "" {
		return errAt(s.Pos, "protocol has no name")
	}
	states := map[string]bool{"init": true}
	for i, st := range s.States {
		if states[st] && st != "init" {
			return errAt(s.statePos(i), "state %q declared twice", st)
		}
		states[st] = true
	}
	nbrTypes := map[string]bool{}
	for _, nt := range s.NeighborTypes {
		if nbrTypes[nt.Name] {
			return errAt(nt.Pos, "neighbor type %q declared twice", nt.Name)
		}
		nbrTypes[nt.Name] = true
	}
	transports := map[string]bool{}
	for _, tr := range s.Transports {
		if transports[tr.Name] {
			return errAt(tr.Pos, "transport %q declared twice", tr.Name)
		}
		transports[tr.Name] = true
	}
	if s.Uses != "" && len(s.Transports) > 0 {
		return errAt(s.Transports[0].Pos, "layered protocols (uses %s) must not declare transports", s.Uses)
	}
	msgs := map[string]bool{}
	for _, m := range s.Messages {
		if msgs[m.Name] {
			return errAt(m.Pos, "message %q declared twice", m.Name)
		}
		msgs[m.Name] = true
		if m.Transport != "" {
			if s.Uses != "" {
				return errAt(m.Pos, "message %q binds transport %q but the protocol is layered", m.Name, m.Transport)
			}
			if !transports[m.Transport] {
				return errAt(m.Pos, "message %q binds undeclared transport %q", m.Name, m.Transport)
			}
		} else if s.Uses == "" {
			return errAt(m.Pos, "message %q of a lowest-layer protocol needs a transport", m.Name)
		}
		for _, f := range m.Fields {
			if !scalarTypes[f.Type] && !nbrTypes[f.Type] {
				return errAt(f.Pos, "message %q field %q has unknown type %q", m.Name, f.Name, f.Type)
			}
		}
	}
	for _, c := range s.Constants {
		_, errInt := strconv.ParseInt(c.Value, 0, 64)
		_, errFloat := strconv.ParseFloat(c.Value, 64)
		if errInt != nil && errFloat != nil && !gotoken.IsIdentifier(c.Value) {
			return errAt(c.Pos, "constant %s = %s is neither an int or double literal nor a name", c.Name, c.Value)
		}
	}
	params := map[string]bool{}
	for _, bp := range s.BaseParams {
		if params[bp.Name] {
			return errAt(bp.Pos, "base param %q declared twice", bp.Name)
		}
		params[bp.Name] = true
		if n, ok := s.IntValue(bp.Value); !ok || int(int32(n)) != n {
			return errAt(bp.Pos, "base param %s = %s is not an int literal or int constant", bp.Name, bp.Value)
		}
	}
	for _, nt := range s.NeighborTypes {
		if nt.Max != "" {
			if n, ok := s.IntValue(nt.Max); !ok || n <= 0 {
				return errAt(nt.Pos, "neighbor type %q capacity %q is not a positive integer literal or constant", nt.Name, nt.Max)
			}
		}
	}
	timers := map[string]bool{}
	vars := map[string]bool{}
	for _, v := range s.StateVars {
		if vars[v.Name] {
			return errAt(v.Pos, "state variable %q declared twice", v.Name)
		}
		vars[v.Name] = true
		switch v.Kind {
		case VarTimer:
			timers[v.Name] = true
			if v.Period != "" {
				if n, ok := s.IntValue(v.Period); !ok || n < 0 {
					return errAt(v.Pos, "timer %q period %q is not a non-negative integer literal or constant", v.Name, v.Period)
				}
			}
		case VarNeighborList:
			if !nbrTypes[v.Type] {
				return errAt(v.Pos, "neighbor list %q has unknown type %q", v.Name, v.Type)
			}
			if v.Max != "" {
				if n, ok := s.IntValue(v.Max); !ok || n <= 0 {
					return errAt(v.Pos, "neighbor list %q capacity %q is not a positive integer literal or constant", v.Name, v.Max)
				}
			}
		case VarTable:
			if n, ok := s.IntValue(v.Max); !ok || n <= 0 {
				return errAt(v.Pos, "nodetable %q size %q is not a positive integer literal or constant", v.Name, v.Max)
			}
		case VarLog:
			if !msgs[v.Type] {
				return errAt(v.Pos, "log %q of undeclared message %q", v.Name, v.Type)
			}
			if n, ok := s.IntValue(v.Max); !ok || n <= 0 {
				return errAt(v.Pos, "log %q size %q is not a positive integer literal or constant", v.Name, v.Max)
			}
		case VarKeyTable:
			fields := map[string]bool{}
			for _, f := range v.Fields {
				if !scalarTypes[f.Type] && f.Type != "tally" {
					return errAt(f.Pos, "keytable %q field %q has unknown type %q", v.Name, f.Name, f.Type)
				}
				if fields[f.Name] {
					return errAt(f.Pos, "keytable %q field %q declared twice", v.Name, f.Name)
				}
				fields[f.Name] = true
			}
		}
	}
	if err := s.validateRouting(); err != nil {
		return err
	}
	checkGuard := func(tr Transition) error {
		var walk func(g StateGuard) error
		walk = func(g StateGuard) error {
			switch g := g.(type) {
			case GuardStates:
				for _, st := range g.States {
					if !states[st] {
						return errAt(tr.Pos, "guard references undeclared state %q", st)
					}
				}
			case GuardNot:
				return walk(g.Inner)
			}
			return nil
		}
		return walk(tr.Guard)
	}
	for _, tr := range s.Transitions {
		if err := checkGuard(tr); err != nil {
			return err
		}
		switch tr.Kind {
		case TransTimer:
			if !timers[tr.Name] {
				return errAt(tr.Pos, "transition on undeclared timer %q", tr.Name)
			}
		case TransRecv, TransForward:
			if !msgs[tr.Name] {
				return errAt(tr.Pos, "transition on undeclared message %q", tr.Name)
			}
		}
	}
	return nil
}

// validateRouting checks the routing declaration: each role belongs to the
// kind and is bound once, to a declared auxiliary variable of a type the
// role takes.
func (s *Spec) validateRouting() error {
	r := s.Routing
	if r == nil {
		return nil
	}
	if !r.Kind.valid() {
		return errAt(r.Pos, "unknown routing kind %d", int(r.Kind))
	}
	vars := make(map[string]StateVar, len(s.StateVars))
	for _, v := range s.StateVars {
		vars[v.Name] = v
	}
	bound := map[string]bool{}
	for _, b := range r.Binds {
		role, ok := r.Kind.Role(b.Role)
		if !ok {
			var have []string
			for _, ro := range r.Kind.Roles() {
				have = append(have, ro.Name)
			}
			return errAt(b.Pos, "routing %s has no role %q (have %s)", r.Kind, b.Role, strings.Join(have, ", "))
		}
		if bound[b.Role] {
			return errAt(b.Pos, "routing role %s bound twice", b.Role)
		}
		bound[b.Role] = true
		v, ok := vars[b.Var]
		if !ok {
			return errAt(b.Pos, "routing role %s binds undeclared variable %q", b.Role, b.Var)
		}
		switch {
		case v.Kind == VarNeighborList:
		case role.List && (v.Kind == VarTable || v.Kind == VarPlain && v.Type == "nodeset"):
		case !role.List && v.Kind == VarPlain && v.Type == "node":
		default:
			want := "a node or a neighbor list"
			if role.List {
				want = "a nodeset, nodetable or neighbor list"
			}
			return errAt(b.Pos, "routing role %s takes %s, not %s %q", b.Role, want, v.typeName(), b.Var)
		}
	}
	return nil
}

// IntValue resolves a literal, or the name of a constant (the last one
// declared by that name), to an int. Validate reads base params, timer
// periods, list capacities and table sizes through it: each must be a
// compile-time integer.
func (s *Spec) IntValue(v string) (int, bool) {
	for _, c := range slices.Backward(s.Constants) {
		if c.Name == v {
			v = c.Value
			break
		}
	}
	n, err := strconv.Atoi(v)
	return n, err == nil
}

// typeName names the variable's type in a diagnostic.
func (v StateVar) typeName() string {
	switch v.Kind {
	case VarTimer:
		return "timer"
	case VarNeighborList:
		return "neighbor list"
	case VarTable:
		return "nodetable"
	case VarLog:
		return "log"
	}
	return v.Type
}

// errAt returns a diagnostic positioned at pos.
func errAt(pos Pos, format string, args ...any) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// statePos locates the i-th declared state, or the protocol header when the
// Spec was built without state positions.
func (s *Spec) statePos(i int) Pos {
	if i < len(s.StatePos) {
		return s.StatePos[i]
	}
	return s.Pos
}

// CountLines counts the lines of a specification that hold a token, as lex
// reads it: the LOC metric of the paper's Figure 7. Blank lines and lines
// holding only comments do not count.
func CountLines(src string) (int, error) {
	toks, err := lex(src)
	if err != nil {
		return 0, err
	}
	n, last := 0, 0
	for _, t := range toks {
		if t.kind != tokEOF && t.pos.Line != last {
			n, last = n+1, t.pos.Line
		}
	}
	return n, nil
}
