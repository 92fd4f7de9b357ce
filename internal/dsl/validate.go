package dsl

import (
	"fmt"
	gotoken "go/token"
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
// *Error positioned at the offending declaration.
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
	consts := map[string]string{}
	for _, c := range s.Constants {
		_, errInt := strconv.ParseInt(c.Value, 0, 64)
		_, errFloat := strconv.ParseFloat(c.Value, 64)
		if errInt != nil && errFloat != nil && !gotoken.IsIdentifier(c.Value) {
			return errAt(c.Pos, "constant %s = %s is neither an int or double literal nor a name", c.Name, c.Value)
		}
		consts[c.Name] = c.Value
	}
	// intValue resolves a literal or constant reference to an integer; it
	// backs the sizing diagnostics below (timer periods, list capacities,
	// table sizes must be compile-time integers).
	intValue := func(v string) (int, bool) {
		if rep, ok := consts[v]; ok {
			v = rep
		}
		n, err := strconv.Atoi(v)
		return n, err == nil
	}
	params := map[string]bool{}
	for _, bp := range s.BaseParams {
		if params[bp.Name] {
			return errAt(bp.Pos, "base param %q declared twice", bp.Name)
		}
		params[bp.Name] = true
		if n, ok := intValue(bp.Value); !ok || int(int32(n)) != n {
			return errAt(bp.Pos, "base param %s = %s is not an int literal or int constant", bp.Name, bp.Value)
		}
	}
	for _, nt := range s.NeighborTypes {
		if nt.Max != "" {
			if n, ok := intValue(nt.Max); !ok || n <= 0 {
				return errAt(nt.Pos, "neighbor type %q capacity %q is not a positive integer literal or constant", nt.Name, nt.Max)
			}
		}
	}
	timers := map[string]bool{}
	vars := map[string]bool{}
	lists := map[string]bool{}
	logs := map[string]string{} // log name → logged message
	env := bodyEnv{logs: logs, stores: map[string]string{}, msgs: map[string]Message{}, states: states}
	for _, m := range s.Messages {
		env.msgs[m.Name] = m
	}
	for _, v := range s.StateVars {
		if vars[v.Name] {
			return errAt(v.Pos, "state variable %q declared twice", v.Name)
		}
		vars[v.Name] = true
		if v.Kind == VarPlain && storeTypes[v.Type] {
			env.stores[v.Name] = v.Type
		}
		switch v.Kind {
		case VarTimer:
			timers[v.Name] = true
			if v.Period != "" {
				if n, ok := intValue(v.Period); !ok || n < 0 {
					return errAt(v.Pos, "timer %q period %q is not a non-negative integer literal or constant", v.Name, v.Period)
				}
			}
		case VarNeighborList:
			lists[v.Name] = true
			if !nbrTypes[v.Type] {
				return errAt(v.Pos, "neighbor list %q has unknown type %q", v.Name, v.Type)
			}
			if v.Max != "" {
				if n, ok := intValue(v.Max); !ok || n <= 0 {
					return errAt(v.Pos, "neighbor list %q capacity %q is not a positive integer literal or constant", v.Name, v.Max)
				}
			}
		case VarTable:
			if n, ok := intValue(v.Max); !ok || n <= 0 {
				return errAt(v.Pos, "nodetable %q size %q is not a positive integer literal or constant", v.Name, v.Max)
			}
		case VarLog:
			if !msgs[v.Type] {
				return errAt(v.Pos, "log %q of undeclared message %q", v.Name, v.Type)
			}
			if n, ok := intValue(v.Max); !ok || n <= 0 {
				return errAt(v.Pos, "log %q size %q is not a positive integer literal or constant", v.Name, v.Max)
			}
			logs[v.Name] = v.Type
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
		if err := checkBody(tr.Body, env); err != nil {
			return err
		}
	}
	return nil
}

// arity is the argument count of the primitives whose misuse the validator
// reports at the statement, before generation.
var arity = map[string]int{"now": 0, "time_diff": 2, "time_diff_ms": 2, "jitter": 1, "zeros": 1,
	"sample": 2, "ticket": 2, "ticket_add": 3, "ticket_merge": 2, "ticket_node": 2, "ticket_summary": 2,
	"notified": 1, "in_state": 1, "dedup_add": 5,
	"block_reset": 3, "block_put": 5, "block_has": 3, "block_typ": 3, "block_payload": 3,
	"block_incs": 1, "block_streams": 2, "block_missing": 5, "block_summary": 1, "block_disjoint": 2,
	"cluster_found": 1, "cluster_heard": 3, "cluster_install": 6, "cluster_elect": 3,
	"cluster_admit": 4, "cluster_announce": 3, "cluster_leave": 4, "cluster_expire": 4, "cluster_split": 4,
	"cluster_merge": 3, "cluster_layers": 1, "cluster_leader": 2, "cluster_parent": 2, "cluster_members": 2,
	"cluster_of": 2, "cluster_center": 2, "cluster_mapped": 2, "cluster_fanout": 3,
	"dist_set": 3, "dist_row": 4, "dist_known": 2, "dist_addrs": 1, "dist_values": 1,
}

// storeTypes are the state types the action library keeps a structure in;
// a primitive over one names a variable of its type first.
var storeTypes = map[string]bool{"blocks": true, "clusters": true, "dedup": true}

// storeOf is the store type a primitive takes first: blocks for block_*,
// clusters for cluster_* and dist_*, dedup for dedup_add.
func storeOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "block_"):
		return "blocks"
	case strings.HasPrefix(fn, "cluster_"), strings.HasPrefix(fn, "dist_"):
		return "clusters"
	case fn == "dedup_add":
		return "dedup"
	}
	return ""
}

// viewSenders are the cluster primitives that send views in the message
// their second argument names.
var viewSenders = map[string]bool{"cluster_admit": true, "cluster_announce": true, "cluster_leave": true,
	"cluster_expire": true, "cluster_split": true, "cluster_merge": true}

// SendsViews reports whether primitive fn sends cluster views in the
// message its second argument names.
func SendsViews(fn string) bool { return viewSenders[fn] }

// bodyEnv is what checkBody checks names against.
type bodyEnv struct {
	logs   map[string]string // log name → logged message
	stores map[string]string // store variable → its type
	msgs   map[string]Message
	states map[string]bool
}

// badCall reports what is wrong with a call of an action-library primitive
// of the right arity, or "".
func (env bodyEnv) badCall(c CallExpr) string {
	if n, ok := arity[c.Fn]; !ok || n != len(c.Args) || n == 0 {
		return ""
	}
	id, isName := c.Args[0].(Ident)
	if want := storeOf(c.Fn); want != "" && (!isName || env.stores[id.Name] != want) {
		return fmt.Sprintf("%s of %s, which is not a declared %s variable", c.Fn, c.Args[0], want)
	}
	if c.Fn == "in_state" && (!isName || !env.states[id.Name]) {
		return fmt.Sprintf("in_state of %s, which is not a declared state", c.Args[0])
	}
	if viewSenders[c.Fn] {
		// The view's fields, in order: layer, leader, parent leader, members.
		m, ok := Message{}, false
		if id, isName := c.Args[1].(Ident); isName {
			m, ok = env.msgs[id.Name]
		}
		var types []string
		for _, f := range m.Fields {
			if f.Type == "short" || f.Type == "char" {
				f.Type = "int"
			}
			types = append(types, f.Type)
		}
		if !ok || strings.Join(types, " ") != "int node node nodeset" {
			return fmt.Sprintf("%s sends views in %s, which is not a declared message of fields (int layer, node leader, node parent, nodeset members)", c.Fn, c.Args[1])
		}
	}
	return ""
}

// checkBody checks the statements that name a bounded log — a log statement
// appends to a declared log of its message, log_replay replays one — the
// argument counts of the primitives listed in arity, and the names the
// action-library primitives take (badCall).
func checkBody(body []Stmt, env bodyEnv) error {
	logs := env.logs
	for _, st := range body {
		var exprs []Expr
		switch st := st.(type) {
		case *CallStmt:
			exprs = st.Args
			for _, f := range st.Fields {
				exprs = append(exprs, f.Value)
			}
			name := ""
			if len(st.Args) > 0 {
				if id, ok := st.Args[0].(Ident); ok {
					name = id.Name
				}
			}
			switch {
			case st.Msg != "" && st.Fn == "log" && logs[name] != st.Msg:
				return errAt(st.Pos, "log %s(%s, ...): %q is not a declared log of %s", st.Msg, name, name, st.Msg)
			case st.Msg == "" && st.Fn == "log_replay" && logs[name] == "":
				return errAt(st.Pos, "log_replay of %q, which is not a declared log", name)
			}
			if st.Msg == "" {
				exprs = append(exprs, CallExpr{Fn: st.Fn, Args: st.Args})
			}
		case *AssignStmt:
			exprs = []Expr{st.Value}
		case *LocalStmt:
			if st.Value != nil {
				exprs = []Expr{st.Value}
			}
		case *IfStmt:
			exprs = []Expr{st.Cond}
			if err := checkBody(st.Then, env); err != nil {
				return err
			}
			if err := checkBody(st.Else, env); err != nil {
				return err
			}
		case *ForeachStmt:
			exprs = []Expr{st.List}
			if err := checkBody(st.Body, env); err != nil {
				return err
			}
		}
		for _, e := range exprs {
			if c, ok := badArity(e); ok {
				return errAt(st.Position(), "%s takes %d arguments, not %d", c.Fn, arity[c.Fn], len(c.Args))
			}
			if c, ok := findCall(e, func(c CallExpr) bool { return env.badCall(c) != "" }); ok {
				return errAt(st.Position(), "%s", env.badCall(c))
			}
		}
	}
	return nil
}

// badArity finds a call in e of a primitive listed in arity with the wrong
// number of arguments.
func badArity(e Expr) (CallExpr, bool) {
	return findCall(e, func(c CallExpr) bool {
		n, ok := arity[c.Fn]
		return ok && n != len(c.Args)
	})
}

// findCall finds a call in e, outermost first, that bad reports.
func findCall(e Expr, bad func(CallExpr) bool) (CallExpr, bool) {
	switch e := e.(type) {
	case CallExpr:
		if bad(e) {
			return e, true
		}
		for _, a := range e.Args {
			if c, ok := findCall(a, bad); ok {
				return c, true
			}
		}
	case BinExpr:
		if c, ok := findCall(e.L, bad); ok {
			return c, true
		}
		return findCall(e.R, bad)
	case NotExpr:
		return findCall(e.Inner, bad)
	case EntryExpr:
		return findCall(e.Key, bad)
	}
	return CallExpr{}, false
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

// CountLines counts the non-blank, non-comment source lines of a
// specification — the LOC metric of the paper's Figure 7.
func CountLines(src string) int {
	count := 0
	inBlock := false
	line := ""
	flush := func() {
		trimmed := ""
		for _, r := range line {
			if r != ' ' && r != '\t' {
				trimmed += string(r)
			}
		}
		if trimmed != "" {
			count++
		}
		line = ""
	}
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case inBlock:
			if c == '*' && i+1 < len(src) && src[i+1] == '/' {
				inBlock = false
				i++
			} else if c == '\n' {
				flush()
			}
		case c == '/' && i+1 < len(src) && src[i+1] == '/':
			for i < len(src) && src[i] != '\n' {
				i++
			}
			continue
		case c == '/' && i+1 < len(src) && src[i+1] == '*':
			inBlock = true
			i++
		case c == '\n':
			flush()
		default:
			line += string(c)
		}
		i++
	}
	flush()
	return count
}
