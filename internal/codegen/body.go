package codegen

import (
	"fmt"
	"maps"
	"strconv"
	"strings"

	"macedon/internal/dsl"
)

// softError marks constructs outside the translatable subset (unknown
// primitives, extensible library calls): the statement degrades to a TODO
// comment instead of failing the whole generation, mirroring how the paper's
// translator passes unknown C fragments through.
type softError struct{ msg string }

func (e softError) Error() string { return e.msg }

func softf(format string, args ...any) error {
	return softError{msg: fmt.Sprintf(format, args...)}
}

func isSoft(err error) bool {
	_, ok := err.(softError)
	return ok
}

// stmtSummary renders a statement for the TODO comment that preserves it.
func stmtSummary(s dsl.Stmt) string {
	switch s := s.(type) {
	case *dsl.CallStmt:
		var parts []string
		for _, a := range s.Args {
			parts = append(parts, a.String())
		}
		fn := s.Fn
		if s.Msg != "" {
			fn = "send " + s.Msg
			for _, fi := range s.Fields {
				parts = append(parts, fi.Name+" = "+fi.Value.String())
			}
		}
		return fmt.Sprintf("%s(%s)", fn, strings.Join(parts, ", "))
	case *dsl.AssignStmt:
		return fmt.Sprintf("%s = %s", s.Target, s.Value)
	case *dsl.LocalStmt:
		if s.Value != nil {
			return fmt.Sprintf("%s %s = %s", s.Type, s.Name, s.Value)
		}
		return fmt.Sprintf("%s %s", s.Type, s.Name)
	case *dsl.IfStmt:
		return fmt.Sprintf("if (%s) { ... }", s.Cond)
	case *dsl.ForeachStmt:
		return fmt.Sprintf("foreach (%s in %s) { ... }", s.Var, s.List)
	case *dsl.ReturnStmt:
		return "return"
	case *dsl.OpaqueStmt:
		return s.Text
	}
	return fmt.Sprintf("%T", s)
}

// stmt translates one action-language statement at the given indent depth.
// Statements whose translation fails softly (constructs outside the subset)
// degrade to TODO comments; hard errors abort generation.
func (g *generator) stmt(s dsl.Stmt, depth int) error {
	ind := strings.Repeat("\t", depth)
	err := g.stmtInner(s, ind, depth)
	switch {
	case err == nil:
		if _, opaque := s.(*dsl.OpaqueStmt); !opaque {
			g.translated++
		}
		return nil
	case isSoft(err):
		g.opaque++
		g.pf("%s// TODO(macedon): untranslated action: %s\n", ind, stmtSummary(s))
		return nil
	default:
		return err
	}
}

func (g *generator) stmtInner(s dsl.Stmt, ind string, depth int) error {
	switch s := s.(type) {
	case *dsl.AssignStmt:
		val, err := g.expr(s.Value)
		if err != nil {
			return err
		}
		if _, local := g.locals[s.Target]; local {
			g.pf("%s%s = %s\n", ind, goName(s.Target), val)
			return nil
		}
		v, ok := g.varTypes[s.Target]
		if !ok || v.Kind != dsl.VarPlain {
			return fmt.Errorf("codegen: %s: assignment to undeclared variable %q", s.Pos, s.Target)
		}
		if v.Type == "nodeset" {
			// A nodeset owns its array (list_append and list_clear work in
			// place), so storing a list value copies it into the target's own
			// storage: two list variables never share an array.
			src, err := g.nodesetExpr(s.Value)
			if err != nil {
				return err
			}
			g.pf("%sa.%s = append(a.%s[:0], %s...)\n", ind, camel(s.Target), camel(s.Target), src)
			return nil
		}
		if v.Type == "buffer" {
			// A received buffer field is a view of a lent frame, valid only
			// for its transition: a state variable keeps its own copy.
			g.pf("%sa.%s = append(a.%s[:0], %s...)\n", ind, camel(s.Target), camel(s.Target), val)
			return nil
		}
		g.pf("%sa.%s = %s\n", ind, camel(s.Target), val)
	case *dsl.LocalStmt:
		if !g.localTypes[s.Type] {
			return softf("local declaration of unsupported type %q at %s", s.Type, s.Pos)
		}
		if s.Value != nil {
			val, err := g.expr(s.Value)
			if err != nil {
				return err
			}
			g.pf("%svar %s %s = %s\n", ind, goName(s.Name), goType(s.Type), val)
		} else {
			g.pf("%svar %s %s\n", ind, goName(s.Name), goType(s.Type))
		}
		g.pf("%s_ = %s\n", ind, goName(s.Name))
		g.locals[s.Name] = s.Type
	case *dsl.ReturnStmt:
		g.pf("%sreturn\n", ind)
	case *dsl.IfStmt:
		cond, err := g.expr(s.Cond)
		if err != nil {
			return err
		}
		g.pf("%sif %s {\n", ind, cond)
		if err := g.scopedBody(s.Then, depth+1); err != nil {
			return err
		}
		if len(s.Else) > 0 {
			g.pf("%s} else {\n", ind)
			if err := g.scopedBody(s.Else, depth+1); err != nil {
				return err
			}
		}
		g.pf("%s}\n", ind)
	case *dsl.ForeachStmt:
		rng, err := g.rangeExpr(s.List)
		if err != nil {
			return err
		}
		if id, ok := s.List.(dsl.Ident); ok && g.varTypes[id.Name].Type == "nodeset" && rewritesList(s.Body, id.Name) {
			// The body rewrites the front of the array it ranges over: range
			// over a copy, as loops over a neighbor list already do.
			rng = fmt.Sprintf("append([]overlay.Address(nil), %s...)", rng)
		}
		g.loopVars[s.Var] = true
		g.pf("%sfor _, %s := range %s {\n", ind, goName(s.Var), rng)
		if err := g.scopedBody(s.Body, depth+1); err != nil {
			return err
		}
		g.pf("%s}\n", ind)
		delete(g.loopVars, s.Var)
	case *dsl.CallStmt:
		return g.callStmt(s, ind)
	case *dsl.OpaqueStmt:
		g.opaque++
		g.pf("%s// TODO(macedon): untranslated action: %s\n", ind, s.Text)
	default:
		return fmt.Errorf("codegen: unknown statement %T", s)
	}
	return nil
}

// scopedBody translates a nested block, descoping the locals and payload
// rewrites it declared on the way out — Go block scoping, so the generated
// code cannot reference a local outside the block that declared it.
func (g *generator) scopedBody(stmts []dsl.Stmt, depth int) error {
	savedLocals, savedRewrites := maps.Clone(g.locals), maps.Clone(g.rewrites)
	for _, st := range stmts {
		if err := g.stmt(st, depth); err != nil {
			return err
		}
	}
	g.locals, g.rewrites = savedLocals, savedRewrites
	return nil
}

// rewritesList reports whether stmts, at any depth, can overwrite entries
// [0,len) of the named nodeset's array: list_clear or list_trunc (a later
// list_append then reuses the freed slots) or an assignment to it (a copy into
// its storage). list_append alone only writes past len, and list_prepend,
// list_remove and ring_insert build a fresh array.
func rewritesList(stmts []dsl.Stmt, name string) bool {
	for _, st := range stmts {
		switch st := st.(type) {
		case *dsl.AssignStmt:
			if st.Target == name {
				return true
			}
		case *dsl.CallStmt:
			if id, ok := firstIdent(st.Args); ok && id.Name == name && (st.Fn == "list_clear" || st.Fn == "list_trunc") {
				return true
			}
		case *dsl.IfStmt:
			if rewritesList(st.Then, name) || rewritesList(st.Else, name) {
				return true
			}
		case *dsl.ForeachStmt:
			if rewritesList(st.Body, name) {
				return true
			}
		}
	}
	return false
}

// rangeExpr resolves a foreach collection: a neighbor list, a nodeset state
// variable, a nodetable state variable, or a nodeset message field.
func (g *generator) rangeExpr(e dsl.Expr) (string, error) {
	if id, ok := e.(dsl.Ident); ok {
		if v, declared := g.varTypes[id.Name]; declared {
			switch {
			case v.Kind == dsl.VarNeighborList:
				return fmt.Sprintf("ctx.Neighbors(%q).Addrs()", id.Name), nil
			case v.Kind == dsl.VarTable:
				return "a." + camel(id.Name) + "[:]", nil
			case v.Kind == dsl.VarPlain && v.Type == "nodeset":
				return "a." + camel(id.Name), nil
			}
		}
	}
	return g.nodesetExpr(e)
}

// nodesetExpr resolves an expression that must denote a nodeset value: a
// nodeset state variable or a nodeset message field.
func (g *generator) nodesetExpr(e dsl.Expr) (string, error) {
	switch e := e.(type) {
	case dsl.Ident:
		if v, ok := g.varTypes[e.Name]; ok && v.Kind == dsl.VarPlain && v.Type == "nodeset" {
			return "a." + camel(e.Name), nil
		}
	case dsl.CallExpr:
		if e.Fn == "field" && len(e.Args) == 1 && g.curMsg != nil {
			if id, ok := e.Args[0].(dsl.Ident); ok {
				for _, f := range g.curMsg.Fields {
					if f.Name == id.Name && f.Type == "nodeset" {
						return "m." + camel(id.Name), nil
					}
				}
			}
		}
	}
	return "", softf("%s is not a nodeset collection", e)
}

// listVar resolves a statement argument that must name a nodeset state
// variable, returning the generated lvalue.
func (g *generator) listVar(s *dsl.CallStmt, i int) (string, error) {
	if i >= len(s.Args) {
		return "", softf("%s is missing its nodeset argument at %s", s.Fn, s.Pos)
	}
	id, ok := s.Args[i].(dsl.Ident)
	if !ok {
		return "", softf("%s needs a nodeset variable name at %s", s.Fn, s.Pos)
	}
	if v, declared := g.varTypes[id.Name]; !declared || v.Kind != dsl.VarPlain || v.Type != "nodeset" {
		return "", softf("%q is not a declared nodeset variable at %s", id.Name, s.Pos)
	}
	return "a." + camel(id.Name), nil
}

// tableVar resolves a statement argument that must name a nodetable.
func (g *generator) tableVar(s *dsl.CallStmt, i int) (string, error) {
	if i >= len(s.Args) {
		return "", softf("%s is missing its nodetable argument at %s", s.Fn, s.Pos)
	}
	id, ok := s.Args[i].(dsl.Ident)
	if !ok {
		return "", softf("%s needs a nodetable name at %s", s.Fn, s.Pos)
	}
	if v, declared := g.varTypes[id.Name]; !declared || v.Kind != dsl.VarTable {
		return "", softf("%q is not a declared nodetable at %s", id.Name, s.Pos)
	}
	return "a." + camel(id.Name) + "[:]", nil
}

// mapVar resolves a statement argument that must name a keymap.
func (g *generator) mapVar(fn string, args []dsl.Expr, i int, pos dsl.Pos) (string, error) {
	if i >= len(args) {
		return "", softf("%s is missing its keymap argument at %s", fn, pos)
	}
	id, ok := args[i].(dsl.Ident)
	if !ok {
		return "", softf("%s needs a keymap name at %s", fn, pos)
	}
	if v, declared := g.varTypes[id.Name]; !declared || v.Kind != dsl.VarPlain || v.Type != "keymap" {
		return "", softf("%q is not a declared keymap at %s", id.Name, pos)
	}
	return "a." + camel(id.Name), nil
}

// firstIdent returns the first argument as a bare name, if present.
func firstIdent(args []dsl.Expr) (dsl.Ident, bool) {
	if len(args) == 0 {
		return dsl.Ident{}, false
	}
	id, ok := args[0].(dsl.Ident)
	return id, ok
}

func (g *generator) callStmt(s *dsl.CallStmt, ind string) error {
	// Arguments translate lazily: several primitives take bare names
	// (states, timers, neighbor lists) that are not value expressions.
	arg := func(i int) (string, error) {
		if i >= len(s.Args) {
			return "", softf("%s is missing argument %d at %s", s.Fn, i, s.Pos)
		}
		return g.expr(s.Args[i])
	}
	switch s.Fn {
	case "send":
		m, ok := g.msgs[s.Msg]
		if !ok {
			return fmt.Errorf("codegen: %s: send of undeclared message %q", s.Pos, s.Msg)
		}
		var inits []string
		for _, fi := range s.Fields {
			found := false
			for _, f := range m.Fields {
				if f.Name == fi.Name {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("codegen: %s: message %q has no field %q", s.Pos, s.Msg, fi.Name)
			}
			v, err := g.expr(fi.Value)
			if err != nil {
				return err
			}
			inits = append(inits, fmt.Sprintf("%s: %s", camel(fi.Name), v))
		}
		dest, err := arg(0)
		if err != nil {
			return err
		}
		// The message is built in the agent's send slot (see msgScratch):
		// Send encodes it before returning and keeps nothing. One call
		// expression, so the destination is still evaluated before the fields.
		g.pf("%s_ = ctx.Send(%s, core.Put(&a.io.tx.%s, %s{%s}), overlay.PriorityDefault)\n",
			ind, dest, camel(s.Msg), msgTypeName(s.Msg), strings.Join(inits, ", "))
	case "state_change":
		st, ok := firstIdent(s.Args)
		if !ok {
			return fmt.Errorf("codegen: %s: state_change needs a state name", s.Pos)
		}
		g.pf("%sctx.StateChange(%q)\n", ind, st.Name)
	case "timer_sched", "timer_resched":
		t, ok := firstIdent(s.Args)
		if !ok {
			return fmt.Errorf("codegen: %s: %s needs a timer name", s.Pos, s.Fn)
		}
		period := "0"
		if len(s.Args) > 1 {
			p1, err := arg(1)
			if err != nil {
				return err
			}
			if !g.constExpr(s.Args[1]) {
				// Any other period is an int32 expression: convert it before scaling.
				p1 = "time.Duration(" + p1 + ")"
			}
			period = p1 + "*time.Millisecond"
		}
		fn := "TimerSched"
		if s.Fn == "timer_resched" {
			fn = "TimerResched"
		}
		g.pf("%sctx.%s(%q, %s)\n", ind, fn, t.Name, period)
	case "timer_cancel":
		t, ok := firstIdent(s.Args)
		if !ok {
			return fmt.Errorf("codegen: %s: timer_cancel needs a timer name", s.Pos)
		}
		g.pf("%sctx.TimerCancel(%q)\n", ind, t.Name)
	case "neighbor_add":
		l, err := g.listArg(s, 0)
		if err != nil {
			return err
		}
		a1, err := arg(1)
		if err != nil {
			return err
		}
		g.pf("%sctx.Neighbors(%q).Add(%s)\n", ind, l, a1)
	case "neighbor_remove":
		l, err := g.listArg(s, 0)
		if err != nil {
			return err
		}
		a1, err := arg(1)
		if err != nil {
			return err
		}
		g.pf("%sctx.Neighbors(%q).Remove(%s)\n", ind, l, a1)
	case "neighbor_clear":
		l, err := g.listArg(s, 0)
		if err != nil {
			return err
		}
		g.pf("%sctx.Neighbors(%q).Clear()\n", ind, l)
	case "neighbor_sync":
		l, err := g.listArg(s, 0)
		if err != nil {
			return err
		}
		set, err := g.listVar(s, 1)
		if err != nil {
			return err
		}
		g.pf("%sctx.Neighbors(%q).Assign(%s, ctx.Self())\n", ind, l, set)
	case "list_append", "list_prepend", "list_remove":
		l, err := g.listVar(s, 0)
		if err != nil {
			return err
		}
		a1, err := arg(1)
		if err != nil {
			return err
		}
		g.pf("%s%s = core.%s(%s, %s)\n", ind, l, camel(s.Fn), l, a1)
	case "list_clear":
		l, err := g.listVar(s, 0)
		if err != nil {
			return err
		}
		g.pf("%s%s = %s[:0]\n", ind, l, l)
	case "list_trunc":
		l, err := g.listVar(s, 0)
		if err != nil {
			return err
		}
		n, err := arg(1)
		if err != nil {
			return err
		}
		g.pf("%s%s = core.ListTrunc(%s, %s)\n", ind, l, l, n)
	case "ring_insert":
		l, err := g.listVar(s, 0)
		if err != nil {
			return err
		}
		a1, err := arg(1)
		if err != nil {
			return err
		}
		half, err := arg(2)
		if err != nil {
			return err
		}
		g.pf("%s%s = core.RingInsert(ctx.SelfKey(), ctx.Self(), %s, %s, %s)\n", ind, l, l, a1, half)
	case "table_put":
		t, err := g.tableVar(s, 0)
		if err != nil {
			return err
		}
		idx, err := arg(1)
		if err != nil {
			return err
		}
		val, err := arg(2)
		if err != nil {
			return err
		}
		g.pf("%score.TablePut(%s, %s, %s)\n", ind, t, idx, val)
	case "table_remove":
		t, err := g.tableVar(s, 0)
		if err != nil {
			return err
		}
		val, err := arg(1)
		if err != nil {
			return err
		}
		g.pf("%score.TableRemove(%s, %s)\n", ind, t, val)
	case "table_clear":
		t, err := g.tableVar(s, 0)
		if err != nil {
			return err
		}
		g.pf("%sclear(%s)\n", ind, t)
	case "map_put":
		m, err := g.mapVar(s.Fn, s.Args, 0, s.Pos)
		if err != nil {
			return err
		}
		k, err := arg(1)
		if err != nil {
			return err
		}
		v, err := arg(2)
		if err != nil {
			return err
		}
		// A keymap is allocated on its first put, so a zero Agent is ready.
		g.pf("%sif %s == nil {\n%s\t%s = make(map[overlay.Key]overlay.Address)\n%s}\n", ind, m, ind, m, ind)
		g.pf("%s%s[%s] = %s\n", ind, m, k, v)
	case "map_clear":
		m, err := g.mapVar(s.Fn, s.Args, 0, s.Pos)
		if err != nil {
			return err
		}
		g.pf("%sclear(%s)\n", ind, m)
	case "map_del":
		m, err := g.mapVar(s.Fn, s.Args, 0, s.Pos)
		if err != nil {
			return err
		}
		k, err := arg(1)
		if err != nil {
			return err
		}
		g.pf("%sdelete(%s, %s)\n", ind, m, k)
	case "map_remove_value":
		m, err := g.mapVar(s.Fn, s.Args, 0, s.Pos)
		if err != nil {
			return err
		}
		v, err := arg(1)
		if err != nil {
			return err
		}
		g.pf("%score.MapRemoveValue(%s, %s)\n", ind, m, v)
	case "deliver":
		a0, err := arg(0)
		if err != nil {
			return err
		}
		a1, err := arg(1)
		if err != nil {
			return err
		}
		a2, err := arg(2)
		if err != nil {
			return err
		}
		g.pf("%sctx.Deliver(%s, %s, %s)\n", ind, a0, a1, a2)
	case "forward_upcall":
		// forward_upcall(payload, typ, next): run the engine's forward()
		// upcall for a payload about to travel on toward next (§2.2 — the
		// application or layer above observes every intermediate hop and may
		// quash it, ending the transition, or rewrite it). The payload it
		// returns replaces the payload argument for the statements after
		// this one in its block; a rewrite of the next hop is not honored.
		a0, err := arg(0)
		if err != nil {
			return err
		}
		a1, err := arg(1)
		if err != nil {
			return err
		}
		a2, err := arg(2)
		if err != nil {
			return err
		}
		g.fwCount++
		name := "fwPayload"
		if g.fwCount > 1 {
			name += strconv.Itoa(g.fwCount)
		}
		g.pf("%sfwOk, _, %s := ctx.Forward(%s, %s, %s, overlay.HashAddress(%s))\n", ind, name, a0, a1, a2, a2)
		g.pf("%sif !fwOk {\n%s\treturn\n%s}\n%s_ = %s\n", ind, ind, ind, ind, name)
		g.rewrites[s.Args[0].String()] = name
	case "notify":
		kind, ok := firstIdent(s.Args)
		if !ok {
			return softf("notify needs a neighbor kind at %s", s.Pos)
		}
		l, err := g.listArg(s, 1)
		if err != nil {
			return err
		}
		g.pf("%sctx.NotifyNeighbors(overlay.NbrType%s, ctx.Neighbors(%q).Addrs())\n",
			ind, camel(kind.Name), l)
	case "quash":
		g.pf("%sev.Quash = true\n", ind)
	case "upcall_ext":
		a0, err := arg(0)
		if err != nil {
			return err
		}
		g.pf("%sctx.UpcallExt(int(%s), nil)\n", ind, a0)
	default:
		return softf("unknown primitive statement %q at %s", s.Fn, s.Pos)
	}
	return nil
}

func (g *generator) listArg(s *dsl.CallStmt, i int) (string, error) {
	if i >= len(s.Args) {
		return "", softf("%s is missing its neighbor list argument at %s", s.Fn, s.Pos)
	}
	id, ok := s.Args[i].(dsl.Ident)
	if !ok {
		return "", softf("%s needs a neighbor list name at %s", s.Fn, s.Pos)
	}
	if v, declared := g.varTypes[id.Name]; !declared || v.Kind != dsl.VarNeighborList {
		return "", softf("%q is not a declared neighbor list at %s", id.Name, s.Pos)
	}
	return id.Name, nil
}

// expr translates an action-language expression.
func (g *generator) expr(e dsl.Expr) (string, error) {
	if r, ok := g.rewrites[e.String()]; ok {
		return r, nil
	}
	switch e := e.(type) {
	case dsl.IntLit:
		if lit, ok := number(e.Value); ok {
			return lit, nil
		}
		return "", softf("%s is not a number", e.Value)
	case dsl.Ident:
		return g.ident(e.Name)
	case dsl.NotExpr:
		inner, err := g.expr(e.Inner)
		if err != nil {
			return "", err
		}
		return "!(" + inner + ")", nil
	case dsl.BinExpr:
		l, err := g.expr(e.L)
		if err != nil {
			return "", err
		}
		r, err := g.expr(e.R)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("(%s %s %s)", l, e.Op, r), nil
	case dsl.CallExpr:
		return g.callExpr(e)
	}
	return "", fmt.Errorf("codegen: unknown expression %T", e)
}

func (g *generator) ident(name string) (string, error) {
	if _, local := g.locals[name]; local || g.loopVars[name] {
		return goName(name), nil
	}
	switch name {
	case "self":
		return "ctx.Self()", nil
	case "self_key":
		return "ctx.SelfKey()", nil
	case "nil_node":
		return "overlay.NilAddress", nil
	case "from":
		return "ev.From", nil
	case "bootstrap":
		return "call.Bootstrap", nil
	case "payload":
		return "call.Payload", nil
	case "payload_type":
		return "call.PayloadType", nil
	case "dest":
		return "call.Dest", nil
	case "dest_ip":
		return "call.DestIP", nil
	case "group":
		return "call.Group", nil
	case "priority":
		return "call.Priority", nil
	case "failed":
		return "call.Failed", nil
	}
	if c, ok := g.consts[name]; ok {
		return c, nil
	}
	if v, ok := g.varTypes[name]; ok && v.Kind == dsl.VarPlain {
		return "a." + camel(name), nil
	}
	return "", fmt.Errorf("codegen: unknown identifier %q", name)
}

// constExpr reports whether e is an integer literal or a declared constant,
// which Go treats as an untyped constant.
func (g *generator) constExpr(e dsl.Expr) bool {
	switch e := e.(type) {
	case dsl.IntLit:
		return true
	case dsl.Ident:
		_, local := g.locals[e.Name]
		_, ok := g.consts[e.Name]
		return ok && !local && !g.loopVars[e.Name]
	}
	return false
}

// asInt converts a translated int32 expression to int, leaving an untyped
// constant as it is.
func (g *generator) asInt(e dsl.Expr, s string) string {
	if g.constExpr(e) {
		return s
	}
	return "int(" + s + ")"
}

// exprArg fetches and translates the i-th argument of a value primitive.
func (g *generator) exprArg(e dsl.CallExpr, i int) (string, error) {
	if i >= len(e.Args) {
		return "", softf("%s is missing argument %d", e.Fn, i)
	}
	return g.expr(e.Args[i])
}

// identArg fetches the i-th argument of a value primitive as a bare name.
func identArg(e dsl.CallExpr, i int) (dsl.Ident, error) {
	if i >= len(e.Args) {
		return dsl.Ident{}, softf("%s is missing argument %d", e.Fn, i)
	}
	id, ok := e.Args[i].(dsl.Ident)
	if !ok {
		return dsl.Ident{}, softf("%s argument %d must be a name", e.Fn, i)
	}
	return id, nil
}

func (g *generator) callExpr(e dsl.CallExpr) (string, error) {
	if len(e.Args) == 0 {
		// Every value primitive takes at least one argument; a bare call is
		// outside the subset and degrades like any unknown construct.
		return "", softf("%s() without arguments", e.Fn)
	}
	switch e.Fn {
	case "field":
		id, ok := e.Args[0].(dsl.Ident)
		if !ok || g.curMsg == nil {
			return "", fmt.Errorf("codegen: field() outside a message transition")
		}
		for _, f := range g.curMsg.Fields {
			if f.Name == id.Name {
				return "m." + camel(id.Name), nil
			}
		}
		return "", fmt.Errorf("codegen: message %q has no field %q", g.curMsg.Name, id.Name)
	case "neighbor_size":
		id, err := identArg(e, 0)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("ctx.Neighbors(%q).Size()", id.Name), nil
	case "neighbor_query":
		id, err := identArg(e, 0)
		if err != nil {
			return "", err
		}
		arg, err := g.exprArg(e, 1)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("ctx.Neighbors(%q).Contains(%s)", id.Name, arg), nil
	case "neighbor_full":
		id, err := identArg(e, 0)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("ctx.Neighbors(%q).Full()", id.Name), nil
	case "random":
		n, err := g.exprArg(e, 0)
		if err != nil {
			return "", err
		}
		return "int32(ctx.Rand().Intn(" + g.asInt(e.Args[0], n) + "))", nil
	case "neighbor_random", "neighbor_first":
		id, err := identArg(e, 0)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("core.%s(ctx, %q)", camel(e.Fn), id.Name), nil
	case "hash":
		arg, err := g.exprArg(e, 0)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("overlay.HashAddress(%s)", arg), nil
	case "key_step":
		k, err := g.exprArg(e, 0)
		if err != nil {
			return "", err
		}
		i, err := g.exprArg(e, 1)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("overlay.KeyStep(%s, %s)", k, g.asInt(e.Args[1], i)), nil
	case "between", "between_incl":
		k, err := g.exprArg(e, 0)
		if err != nil {
			return "", err
		}
		a, err := g.exprArg(e, 1)
		if err != nil {
			return "", err
		}
		b, err := g.exprArg(e, 2)
		if err != nil {
			return "", err
		}
		method := "Between"
		if e.Fn == "between_incl" {
			method = "BetweenIncl"
		}
		return fmt.Sprintf("(%s).%s(%s, %s)", k, method, a, b), nil
	case "ring_dist":
		a, err := g.exprArg(e, 0)
		if err != nil {
			return "", err
		}
		b, err := g.exprArg(e, 1)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("(%s).Distance(%s)", a, b), nil
	case "ring_diff":
		a, err := g.exprArg(e, 0)
		if err != nil {
			return "", err
		}
		b, err := g.exprArg(e, 1)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("overlay.RingDiff(%s, %s)", a, b), nil
	case "shared_prefix":
		a, err := g.exprArg(e, 0)
		if err != nil {
			return "", err
		}
		b, err := g.exprArg(e, 1)
		if err != nil {
			return "", err
		}
		bits, err := g.exprArg(e, 2)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("int32((%s).SharedPrefix(%s, %s))", a, b, g.asInt(e.Args[2], bits)), nil
	case "digit":
		k, err := g.exprArg(e, 0)
		if err != nil {
			return "", err
		}
		i, err := g.exprArg(e, 1)
		if err != nil {
			return "", err
		}
		bits, err := g.exprArg(e, 2)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("int32((%s).Digit(%s, %s))", k, g.asInt(e.Args[1], i), g.asInt(e.Args[2], bits)), nil
	case "list_size":
		s, err := g.nodesetExpr(e.Args[0])
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("int32(len(%s))", s), nil
	case "list_get":
		s, err := g.nodesetExpr(e.Args[0])
		if err != nil {
			return "", err
		}
		i, err := g.exprArg(e, 1)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("core.ListGet(%s, %s)", s, i), nil
	case "list_contains":
		s, err := g.nodesetExpr(e.Args[0])
		if err != nil {
			return "", err
		}
		v, err := g.exprArg(e, 1)
		if err != nil {
			return "", err
		}
		g.usesSlices = true
		return fmt.Sprintf("slices.Contains(%s, %s)", s, v), nil
	case "list_random":
		s, err := g.nodesetExpr(e.Args[0])
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("core.ListRandom(ctx, %s)", s), nil
	case "table_get":
		id, err := identArg(e, 0)
		if err != nil {
			return "", err
		}
		if v, declared := g.varTypes[id.Name]; !declared || v.Kind != dsl.VarTable {
			return "", softf("%q is not a declared nodetable", id.Name)
		}
		i, err := g.exprArg(e, 1)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("core.ListGet(a.%s[:], %s)", camel(id.Name), i), nil
	case "map_get":
		m, err := g.mapVar(e.Fn, e.Args, 0, dsl.Pos{})
		if err != nil {
			return "", err
		}
		k, err := g.exprArg(e, 1)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%s[%s]", m, k), nil
	}
	return "", softf("unknown primitive %q", e.Fn)
}
