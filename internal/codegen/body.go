package codegen

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"

	"macedon/internal/dsl"
)

// stmt translates one action-language statement at the given indent depth.
// Whatever keeps it from translating is an error at its position; a nested
// statement's error keeps its own.
func (g *generator) stmt(s dsl.Stmt, depth int) error {
	err := g.stmtInner(s, strings.Repeat("\t", depth), depth)
	var positioned *dsl.Error
	if err != nil && !errors.As(err, &positioned) {
		return &dsl.Error{Pos: s.Position(), Msg: err.Error()}
	}
	return err
}

func (g *generator) stmtInner(s dsl.Stmt, ind string, depth int) error {
	switch s := s.(type) {
	case *dsl.AssignStmt:
		val, err := g.expr(s.Value)
		if err != nil {
			return err
		}
		if s.Entry != nil || s.Field {
			lv, typ, err := g.lvalue(s)
			if err != nil {
				return err
			}
			if typ == "nodeset" && s.Entry != nil {
				// Into the entry's own array, as a nodeset variable is assigned.
				src, err := g.nodesetExpr(s.Value)
				if err != nil {
					return err
				}
				g.pf("%score.ListSet(&%s, %s)\n", ind, lv, src)
				return nil
			}
			if typ == "nodeset" || typ == "tally" || typ == "buffer" || typ == "keyset" {
				return fmt.Errorf("assignment of a whole %s", typ)
			}
			g.pf("%s%s = %s\n", ind, lv, g.convert(typ, s.Value, val))
			return nil
		}
		if typ, local := g.locals[s.Target]; local {
			g.pf("%s%s = %s\n", ind, goName(s.Target), g.convert(typ, s.Value, val))
			return nil
		}
		v, ok := g.varTypes[s.Target]
		if !ok || v.Kind != dsl.VarPlain {
			return fmt.Errorf("assignment to undeclared variable %q", s.Target)
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
		switch v.Type {
		case "buffer", "intset", "timeset":
			// A received buffer or list field is a view of a lent frame or a
			// receive slot, valid only for its transition: a state variable
			// keeps its own copy.
			g.pf("%sa.%s = append(a.%s[:0], %s...)\n", ind, camel(s.Target), camel(s.Target), val)
			return nil
		case "tickets":
			// The summaries too are views of the frame.
			g.pf("%score.TicketsCopy(&a.%s, %s)\n", ind, camel(s.Target), val)
			return nil
		}
		g.pf("%sa.%s = %s\n", ind, camel(s.Target), g.convert(v.Type, s.Value, val))
	case *dsl.LocalStmt:
		if !g.localTypes[s.Type] {
			return fmt.Errorf("local declaration of unsupported type %q", s.Type)
		}
		if g.blockLocals[goName(s.Name)] {
			return fmt.Errorf("local %q declared twice in its block", s.Name)
		}
		if s.Value != nil {
			val, err := g.expr(s.Value)
			if err != nil {
				return err
			}
			g.pf("%svar %s %s = %s\n", ind, goName(s.Name), goType(s.Type), g.convert(s.Type, s.Value, val))
		} else {
			g.pf("%svar %s %s\n", ind, goName(s.Name), goType(s.Type))
		}
		g.pf("%s_ = %s\n", ind, goName(s.Name))
		g.locals[s.Name] = s.Type
		g.blockLocals[goName(s.Name)] = true
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
		outer, shadows := g.loopVars[s.Var]
		g.loopVars[s.Var] = g.elemType(s.List)
		head := fmt.Sprintf("%sfor _, %s := range %s {\n", ind, goName(s.Var), rng)
		if c, ok := s.List.(dsl.CallExpr); ok && c.Fn == "range" {
			head = fmt.Sprintf("%sfor %s := range %s {\n", ind, goName(s.Var), rng)
		}
		at, reads := g.b.Len(), g.loopReads[s.Var]
		g.b.WriteString(head)
		if err := g.scopedBody(s.Body, depth+1); err != nil {
			return err
		}
		if g.loopReads[s.Var] == reads {
			// Go rejects a loop variable nothing reads: range without one.
			src := g.b.String()
			g.b.Reset()
			g.b.WriteString(src[:at])
			g.pf("%sfor range %s {\n", ind, rng)
			g.b.WriteString(src[at+len(head):])
		}
		g.pf("%s}\n", ind)
		// An inner loop over an outer loop's name shadows it only for its
		// body: rebind the outer variable, and forget the inner reads, which
		// must not make an unread outer variable look read.
		g.loopReads[s.Var] = reads
		if shadows {
			g.loopVars[s.Var] = outer
		} else {
			delete(g.loopVars, s.Var)
		}
	case *dsl.CallStmt:
		return g.callStmt(s, ind)
	default:
		return fmt.Errorf("unknown statement %T", s)
	}
	return nil
}

// scopedBody translates a nested block, descoping the locals and payload
// rewrites it declared on the way out — Go block scoping, so the generated
// code cannot reference a local outside the block that declared it.
func (g *generator) scopedBody(stmts []dsl.Stmt, depth int) error {
	savedLocals, savedRewrites, savedBlock := maps.Clone(g.locals), maps.Clone(g.rewrites), g.blockLocals
	g.blockLocals = map[string]bool{}
	for _, st := range stmts {
		if err := g.stmt(st, depth); err != nil {
			return err
		}
	}
	g.locals, g.rewrites, g.blockLocals = savedLocals, savedRewrites, savedBlock
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
			case v.Kind == dsl.VarKeyTable:
				return "core.Keys(a." + camel(id.Name) + ")", nil
			}
		}
	}
	if c, ok := e.(dsl.CallExpr); ok && c.Fn == "range" && len(c.Args) == 1 {
		// foreach (i in range(n)) counts i from 0 to n-1, an int like n; a
		// constant n is typed, so that i is not a Go int.
		n, err := g.expr(c.Args[0])
		if err == nil && g.untyped(c.Args[0]) {
			n = "int32(" + n + ")"
		}
		return n, err
	}
	return g.listExpr(e)
}

// elemType is the mac type of a foreach variable over e: a keytable's key
// type, an int over range(n), and a node over any node collection.
func (g *generator) elemType(e dsl.Expr) string {
	if id, ok := e.(dsl.Ident); ok && g.varTypes[id.Name].Kind == dsl.VarKeyTable {
		return g.varTypes[id.Name].KeyType
	}
	if c, ok := e.(dsl.CallExpr); ok && c.Fn == "range" {
		return "int"
	}
	switch g.typeOf(e) {
	case "intset":
		return "int"
	case "timeset":
		return "time"
	}
	return "node"
}

// listTypes are the mac list types: the values foreach, list_size and
// sample take.
var listTypes = map[string]bool{"nodeset": true, "intset": true, "timeset": true, "tickets": true}

// listExpr resolves an expression that must denote a list value: a nodeset
// value, or a state variable, message field or primitive of another list
// type.
func (g *generator) listExpr(e dsl.Expr) (string, error) {
	if ns, err := g.nodesetExpr(e); err == nil {
		return ns, nil
	}
	if listTypes[g.typeOf(e)] {
		return g.expr(e)
	}
	return "", fmt.Errorf("%s is not a list", e)
}

// nodesetExpr resolves an expression that must denote a nodeset value: a
// nodeset state variable or a nodeset message field.
func (g *generator) nodesetExpr(e dsl.Expr) (string, error) {
	switch e := e.(type) {
	case dsl.Ident:
		if v, ok := g.varTypes[e.Name]; ok && v.Kind == dsl.VarPlain && v.Type == "nodeset" {
			return "a." + camel(e.Name), nil
		}
		if e.Name == "neighbors" && g.curKind == dsl.TransAPI {
			return "call.Neighbors", nil
		}
	case dsl.EntryExpr:
		read, typ, err := g.entry(e, "core.KeyRead(a.%s, %s).%s")
		if err != nil {
			return "", err
		}
		switch typ {
		case "nodeset":
			return read, nil
		case "tally":
			return read + ".Addrs", nil
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
	return "", fmt.Errorf("%s is not a nodeset collection", e)
}

// firstIdent returns the first argument as a bare name, if present.
func firstIdent(args []dsl.Expr) (dsl.Ident, bool) {
	if len(args) == 0 {
		return dsl.Ident{}, false
	}
	id, ok := args[0].(dsl.Ident)
	return id, ok
}

// prim is a primitive that translates argument by argument: the collection
// kind its first argument takes ("" when it is a value like the rest), its
// Go form over the translated arguments, which arguments Go wants as int,
// and, for a value primitive, the mac type of its value.
type prim struct {
	first, form string
	ints        []int
	typ         string
}

// stmtPrims are the primitive statements of that shape.
var stmtPrims = map[string]prim{
	"state_change":     {"state", "ctx.StateChange(%s)", nil, ""},
	"timer_cancel":     {"timer", "ctx.TimerCancel(%s)", nil, ""},
	"quash":            {"", "ev.Quash = true", nil, ""},
	"deliver":          {"", "ctx.Deliver(%s, %s, %s)", nil, ""},
	"create_group":     {"", "_ = ctx.CreateGroup(%s)", nil, ""},
	"join_group":       {"", "_ = ctx.JoinGroup(%s)", nil, ""},
	"leave_group":      {"", "_ = ctx.LeaveGroup(%s)", nil, ""},
	"route":            {"", "_ = ctx.Route(%s, %s, %s, %s)", nil, ""},
	"route_ip":         {"", "_ = ctx.RouteIP(%s, %s, %s, %s)", nil, ""},
	"multicast":        {"", "_ = ctx.Multicast(%s, %s, %s, %s)", nil, ""},
	"neighbor_add":     {"list", "ctx.Neighbors(%s).Add(%s)", nil, ""},
	"neighbor_remove":  {"list", "ctx.Neighbors(%s).Remove(%s)", nil, ""},
	"neighbor_clear":   {"list", "ctx.Neighbors(%s).Clear()", nil, ""},
	"list_append":      {"nodeset", "%[1]s = core.ListAppend(%[1]s, %[2]s)", nil, ""},
	"list_prepend":     {"nodeset", "%[1]s = core.ListPrepend(%[1]s, %[2]s)", nil, ""},
	"list_remove":      {"nodeset", "%[1]s = core.ListRemove(%[1]s, %[2]s)", nil, ""},
	"list_clear":       {"nodeset", "%[1]s = %[1]s[:0]", nil, ""},
	"list_trunc":       {"nodeset", "%[1]s = core.ListTrunc(%[1]s, %[2]s)", nil, ""},
	"ring_insert":      {"nodeset", "%[1]s = core.RingInsert(ctx.SelfKey(), ctx.Self(), %[1]s, %[2]s, %[3]s)", nil, ""},
	"table_put":        {"nodetable", "core.TablePut(%s, %s, %s)", nil, ""},
	"table_remove":     {"nodetable", "core.TableRemove(%s, %s)", nil, ""},
	"table_clear":      {"nodetable", "clear(%s)", nil, ""},
	"map_put":          {"keymap", "core.MapPut(&%s, %s, %s)", nil, ""},
	"map_del":          {"keymap", "delete(%s, %s)", nil, ""},
	"map_remove_value": {"keymap", "core.MapRemoveValue(%s, %s)", nil, ""},
	"map_clear":        {"keymap", "clear(%s)", nil, ""},
	"tally_heard":      {"tally", "core.TallyHeard(%s, %s)", nil, ""},
	"tally_tick":       {"tally", "core.TallyTick(%s, %s)", nil, ""},
	"tally_remove":     {"tally", "core.TallyRemove(%s, %s)", nil, ""},
	"upcall_ext":       {"", "ctx.UpcallExt(int(%s), nil)", nil, ""},
	"log_replay":       {"log", "core.LogReplay(ctx, %s, %s, %s)", []int{2}, ""},
	"sample":           {"slice", "%[1]s = core.Sample(ctx, %[1]s, %[2]s)", nil, ""},
	"ticket_add":       {"tickets", "%[1]s = core.TicketAdd(%[1]s, %[2]s, %[3]s)", nil, ""},
	"ticket_merge":     {"tickets", "%[1]s = core.TicketMerge(%[1]s, %[2]s)", nil, ""},
	"block_reset":      {"blocks", "core.BlockReset(&%s, %s, %s)", nil, ""},
	"cluster_found":    {"clusters", "core.ClusterFound(ctx, &%s)", nil, ""},
	"cluster_heard":    {"clusters", "core.ClusterHeard(&%s, %s, %s)", nil, ""},
	"cluster_install":  {"clusters", "core.ClusterInstall(ctx, &%s, %s, %s, %s, %s, %s)", nil, ""},
	"cluster_elect":    {"clusters", "core.ClusterElect(&%s, %s, %s)", nil, ""},
	"cluster_admit":    {"clusters", "core.ClusterAdmit(ctx, &%s, %s, %s, %s)", nil, ""},
	"cluster_announce": {"clusters", "core.ClusterAnnounce(ctx, &%s, %s, %s)", nil, ""},
	"cluster_leave":    {"clusters", "core.ClusterLeave(ctx, &%s, %s, %s, %s)", nil, ""},
	"cluster_expire":   {"clusters", "core.ClusterExpire(ctx, &%s, %s, %s, %s)", nil, ""},
	"cluster_split":    {"clusters", "core.ClusterSplit(ctx, &%s, %s, %s, %s)", nil, ""},
	"dist_set":         {"clusters", "core.DistSet(&%s, %s, %s)", nil, ""},
	"dist_row":         {"clusters", "core.DistRow(&%s, %s, %s, %s)", nil, ""},
}

// exprPrims are the value primitives of that shape.
var exprPrims = map[string]prim{
	"random":          {"", "int32(ctx.Rand().Intn(%s))", []int{0}, "int"},
	"hash":            {"", "overlay.HashAddress(%s)", nil, "key"},
	"key_step":        {"", "overlay.KeyStep(%s, %s)", []int{1}, "key"},
	"between":         {"", "(%s).Between(%s, %s)", nil, "bool"},
	"between_incl":    {"", "(%s).BetweenIncl(%s, %s)", nil, "bool"},
	"ring_dist":       {"", "(%s).Distance(%s)", nil, ""},
	"ring_diff":       {"", "overlay.RingDiff(%s, %s)", nil, ""},
	"shared_prefix":   {"", "int32((%s).SharedPrefix(%s, %s))", []int{2}, "int"},
	"digit":           {"", "int32((%s).Digit(%s, %s))", []int{1, 2}, "int"},
	"with_digit":      {"", "(%s).WithDigit(%s, %s, %s)", []int{1, 2, 3}, "key"},
	"neighbor_size":   {"list", "int32(ctx.Neighbors(%s).Size())", nil, "int"},
	"neighbor_query":  {"list", "ctx.Neighbors(%s).Contains(%s)", nil, "bool"},
	"neighbor_full":   {"list", "ctx.Neighbors(%s).Full()", nil, "bool"},
	"neighbor_random": {"list", "core.NeighborRandom(ctx, %s)", nil, "node"},
	"neighbor_first":  {"list", "core.NeighborFirst(ctx, %s)", nil, "node"},
	"list_size":       {"list value", "int32(len(%s))", nil, "int"},
	"list_get":        {"nodeset value", "core.ListGet(%s, %s)", nil, "node"},
	"list_contains":   {"nodeset value", "slices.Contains(%s, %s)", nil, "bool"},
	"list_random":     {"nodeset value", "core.ListRandom(ctx, %s)", nil, "node"},
	"table_get":       {"nodetable", "core.ListGet(%s, %s)", nil, "node"},
	"map_get":         {"keymap", "%s[%s]", nil, "node"},
	"map_size":        {"keymap", "int32(len(%s))", nil, "int"},
	"in_state":        {"state", "(ctx.State() == %s)", nil, "bool"},
	"notified":        {"neighbor kind", "(call.NbrType == overlay.NbrType%s)", nil, "bool"},
	"now":             {"", "ctx.Now().UnixNano()", nil, "time"},
	"time_diff":       {"", "core.Seconds(%s, %s)", nil, "double"},
	"time_diff_ms":    {"", "core.Millis(%s, %s)", nil, "double"},
	"jitter":          {"", "core.Spread(ctx, %s)", nil, "time"},
	"zeros":           {"", "make([]byte, %s)", nil, "buffer"},
	"ticket":          {"", "core.TicketOf(%s, %s)", nil, "tickets"},
	"ticket_node":     {"list value", "core.TicketNode(%s, %s)", nil, "node"},
	"ticket_summary":  {"list value", "core.TicketSummary(%s, %s)", nil, "buffer"},
	"block_put":       {"blocks", "core.BlockPut(&%s, %s, %s, %s, %s)", nil, "bool"},
	"block_has":       {"blocks", "core.BlockHas(&%s, %s, %s)", nil, "bool"},
	"block_typ":       {"blocks", "core.BlockTyp(&%s, %s, %s)", nil, "int"},
	"block_payload":   {"blocks", "core.BlockPayload(&%s, %s, %s)", nil, "buffer"},
	"block_incs":      {"blocks", "core.BlockIncs(&%s)", nil, "timeset"},
	"block_streams":   {"blocks", "core.BlockStreams(&%s, %s)", nil, "timeset"},
	"block_missing":   {"blocks", "core.BlockMissing(&%s, %s, %s, %s, %s)", nil, "intset"},
	"block_summary":   {"blocks", "core.BlockSummary(&%s)", nil, "buffer"},
	"block_disjoint":  {"blocks", "core.BlockDisjoint(&%s, %s)", nil, "double"},
	"cluster_layers":  {"clusters", "%s.Len()", nil, "int"},
	"cluster_leader":  {"clusters", "%s.Leader(%s)", nil, "node"},
	"cluster_parent":  {"clusters", "%s.Parent(%s)", nil, "node"},
	"cluster_members": {"clusters", "%s.Members(%s)", nil, "nodeset"},
	"cluster_of":      {"clusters", "%s.Of(%s)", nil, "int"},
	"cluster_center":  {"clusters", "core.ClusterCenter(ctx, &%s, %s)", nil, "node"},
	"cluster_mapped":  {"clusters", "core.ClusterMapped(ctx, &%s, %s)", nil, "bool"},
	"cluster_merge":   {"clusters", "core.ClusterMerge(ctx, &%s, %s, %s)", nil, "node"},
	"cluster_fanout":  {"clusters", "core.ClusterFanout(ctx, &%s, %s, %s)", nil, "nodeset"},
	"dist_known":      {"clusters", "%s.Known(%s)", nil, "bool"},
	"dist_addrs":      {"clusters", "%s.DistAddrs()", nil, "nodeset"},
	"dist_values":     {"clusters", "%s.DistValues()", nil, "timeset"},
	"dedup_add":       {"dedup", "core.DedupAdd(&%s, %s, %s, %s, %s)", nil, "bool"},
}

// translate formats primitive p over args, each translated in order: the
// first through collection when p takes one, the message a cluster change
// sends views in as its send slot, and the rest as values. It takes exactly
// as many arguments as the form formats.
func (g *generator) translate(fn string, p prim, args []dsl.Expr) (string, error) {
	n := strings.Count(p.form, "%s")
	for k := 9; k > 0; k-- {
		if strings.Contains(p.form, fmt.Sprintf("%%[%d]s", k)) {
			n = k
			break
		}
	}
	if err := arity(fn, len(args), n, n); err != nil {
		return "", err
	}
	if err := g.bound(fn, p.form); err != nil {
		return "", err
	}
	out := make([]any, n)
	for i := range out {
		var v string
		var err error
		switch {
		case i == 0 && p.first != "":
			v, err = g.collection(p.first, fn, args[0])
		case i == 1 && viewSenders[fn]:
			v, err = g.viewSlot(fn, args[1])
		default:
			v, err = g.expr(args[i])
			if slices.Contains(p.ints, i) {
				v = g.asInt(args[i], v)
			}
		}
		if err != nil {
			return "", err
		}
		out[i] = v
	}
	if strings.HasPrefix(p.form, "slices.") {
		g.usesSlices = true
	}
	return fmt.Sprintf(p.form, out...), nil
}

// arity reports a call of fn with n arguments where it takes min to max.
func arity(fn string, n, min, max int) error {
	switch {
	case n >= min && n <= max:
		return nil
	case min == max:
		return fmt.Errorf("%s takes %d arguments, not %d", fn, min, n)
	}
	return fmt.Errorf("%s takes %d to %d arguments, not %d", fn, min, max, n)
}

// bound reports a use of name whose Go form reads a handler parameter the
// transition being translated does not have: ev, the event of a recv or
// forward transition, or call, the call of an API transition.
func (g *generator) bound(name, form string) error {
	switch param, _, _ := strings.Cut(strings.TrimLeft(form, "("), "."); {
	case param == "ev" && g.curMsg == nil:
		return fmt.Errorf("%s outside a recv or forward transition", name)
	case param == "call" && g.curKind != dsl.TransAPI:
		return fmt.Errorf("%s outside an API transition", name)
	}
	return nil
}

// viewSenders are the cluster primitives that send views in the message
// their second argument names.
var viewSenders = map[string]bool{"cluster_admit": true, "cluster_announce": true, "cluster_leave": true,
	"cluster_expire": true, "cluster_split": true, "cluster_merge": true}

// viewSlot resolves the message a cluster change sends views in to its send
// slot. The message's fields must be a view's, in order: layer, leader,
// parent leader, members.
func (g *generator) viewSlot(fn string, a dsl.Expr) (string, error) {
	id, _ := a.(dsl.Ident)
	m, ok := g.msgs[id.Name]
	var types []string
	for _, f := range m.Fields {
		if f.Type == "short" || f.Type == "char" {
			f.Type = "int"
		}
		types = append(types, f.Type)
	}
	if !ok || strings.Join(types, " ") != "int node node nodeset" {
		return "", fmt.Errorf("%s sends views in %s, which is not a declared message of fields (int layer, node leader, node parent, nodeset members)", fn, a)
	}
	return "&a.io.tx." + camel(id.Name), nil
}

// nbrKinds are the neighbor kinds notify and notified name: the
// overlay.NbrType constants, spelled as the spec spells them.
var nbrKinds = map[string]bool{"parent": true, "child": true, "sibling": true, "peer": true,
	"successor": true, "predecessor": true, "finger": true, "leaf_set": true, "route_row": true,
	"cluster_member": true}

// kindNouns say what an argument of a collection kind must be, where that
// is not a declared state variable of the kind's type.
var kindNouns = map[string]string{"list": "declared neighbor list", "timer": "declared timer",
	"state": "declared state", "neighbor kind": "neighbor kind", "nodetable": "declared nodetable",
	"keymap": "declared keymap or keytable", "slice": "declared list variable",
	"tally": "keytable entry's tally field"}

// collection resolves a, a primitive's first argument, as the collection
// kind it takes: a declared neighbor list ("list") or timer, or a declared
// state, as its quoted name; a neighbor kind, as its constant's suffix; a
// nodeset state variable or nodeset field of the message being handled
// ("nodeset", as an lvalue); any nodeset value ("nodeset value"); a
// declared nodetable (as a slice of it), keymap or keytable ("keymap") or
// log; or a keytable entry's tally field ("tally", as a pointer, making the
// entry).
func (g *generator) collection(kind, fn string, a dsl.Expr) (string, error) {
	c, isCall := a.(dsl.CallExpr)
	if kind == "nodeset value" || kind == "nodeset" && isCall && c.Fn == "field" {
		return g.nodesetExpr(a)
	}
	if kind == "list value" {
		return g.listExpr(a)
	}
	if _, isField := c.FieldName(); isCall && isField && (kind == "slice" && listTypes[g.typeOf(a)] || g.typeOf(a) == kind) {
		// A list field of the message being handled, edited in place.
		return g.expr(a)
	}
	if e, ok := a.(dsl.EntryExpr); ok && kind == "tally" {
		t, typ, err := g.entry(e, "&core.KeyEntry(&a.%s, %s).%s")
		if err == nil && typ != "tally" {
			err = fmt.Errorf("%s is a %s, not a tally", e, typ)
		}
		return t, err
	}
	id, _ := a.(dsl.Ident)
	v, declared := g.varTypes[id.Name]
	switch {
	case kind == "state" && g.states[id.Name]:
		return strconv.Quote(id.Name), nil
	case kind == "neighbor kind" && nbrKinds[id.Name]:
		return camel(id.Name), nil
	case !declared:
	case kind == "list" && v.Kind == dsl.VarNeighborList, kind == "timer" && v.Kind == dsl.VarTimer:
		return strconv.Quote(id.Name), nil
	case kind == "nodetable" && v.Kind == dsl.VarTable:
		return "a." + camel(id.Name) + "[:]", nil
	case kind == "keymap" && v.Kind == dsl.VarKeyTable, kind == "log" && v.Kind == dsl.VarLog:
		// map_del, map_clear and map_size take a keytable too.
		return "a." + camel(id.Name), nil
	case v.Kind == dsl.VarPlain && (v.Type == kind || kind == "slice" && listTypes[v.Type]):
		return "a." + camel(id.Name), nil
	}
	if kind == "log" {
		return "", fmt.Errorf("%s of %q, which is not a declared log", fn, a.String())
	}
	what, ok := kindNouns[kind]
	if !ok {
		what = "declared " + kind + " variable"
	}
	return "", fmt.Errorf("%s of %s, which is not a %s", fn, a, what)
}

func (g *generator) callStmt(s *dsl.CallStmt, ind string) error {
	if s.Msg != "" {
		return g.sendStmt(s, ind)
	}
	if p, ok := stmtPrims[s.Fn]; ok {
		if s.Fn == "upcall_ext" && len(s.Args) > 1 {
			p.form = "ctx.UpcallExt(int(%s), %s)"
		}
		st, err := g.translate(s.Fn, p, s.Args)
		if err != nil {
			return err
		}
		g.pf("%s%s\n", ind, st)
		return nil
	}
	switch s.Fn {
	case "timer_sched", "timer_resched":
		if err := arity(s.Fn, len(s.Args), 1, 3); err != nil {
			return err
		}
		t, err := g.collection("timer", s.Fn, s.Args[0])
		if err != nil {
			return err
		}
		if p := g.resolve(g.varTypes[s.Args[0].String()].Period); len(s.Args) == 1 && (p == "" || p == "0") {
			return fmt.Errorf("%s of %s needs a period: the timer declares none", s.Fn, s.Args[0])
		}
		period := "0"
		if len(s.Args) > 1 {
			p1, err := g.expr(s.Args[1])
			if err != nil {
				return err
			}
			switch {
			case g.typeOf(s.Args[1]) == "time":
				// A time period is already in nanoseconds.
				period = "time.Duration(" + p1 + ")"
			case g.constExpr(s.Args[1]):
				period = p1 + "*time.Millisecond"
			default:
				// Any other period is an int32 expression: convert it before scaling.
				period = "time.Duration(" + p1 + ")*time.Millisecond"
			}
			g.usesTime = true
		}
		if len(s.Args) > 2 {
			// A spread: plus a uniform draw in [0, spread) ms, to the ns.
			spread, err := g.expr(s.Args[2])
			if err != nil {
				return err
			}
			period += "+core.Jitter(ctx, " + spread + ")"
		}
		fn := "TimerSched"
		if s.Fn == "timer_resched" {
			fn = "TimerResched"
		}
		g.pf("%sctx.%s(%s, %s)\n", ind, fn, t, period)
	case "neighbor_sync":
		if err := arity(s.Fn, len(s.Args), 2, 2); err != nil {
			return err
		}
		l, err := g.collection("list", s.Fn, s.Args[0])
		if err != nil {
			return err
		}
		set, err := g.collection("nodeset", s.Fn, s.Args[1])
		if err != nil {
			return err
		}
		g.pf("%sctx.Neighbors(%s).Assign(%s, ctx.Self())\n", ind, l, set)
	case "forward_upcall":
		// forward_upcall(payload, typ, next): run the engine's forward()
		// upcall for a payload about to travel on toward next (§2.2 — the
		// application or layer above observes every intermediate hop and may
		// quash it, ending the transition, or rewrite it). The payload it
		// returns replaces the payload argument for the statements after
		// this one in its block; a rewrite of the next hop is not honored.
		g.fwCount++
		name := "fwPayload"
		if g.fwCount > 1 {
			name += strconv.Itoa(g.fwCount)
		}
		call, err := g.translate(s.Fn, prim{"", "ctx.Forward(%[1]s, %[2]s, %[3]s, overlay.HashAddress(%[3]s))", nil, ""}, s.Args)
		if err != nil {
			return err
		}
		g.pf("%sfwOk, _, %s := %s\n", ind, name, call)
		g.pf("%sif !fwOk {\n%s\treturn\n%s}\n%s_ = %s\n", ind, ind, ind, ind, name)
		g.rewrites[s.Args[0].String()] = name
	case "notify":
		if err := arity(s.Fn, len(s.Args), 2, 2); err != nil {
			return err
		}
		kind, err := g.collection("neighbor kind", s.Fn, s.Args[0])
		if err != nil {
			return err
		}
		// The set reported: a neighbor list, a copy of a nodeset (the
		// upcall is deferred past changes to it), or a single node.
		var set string
		if l, err := g.collection("list", s.Fn, s.Args[1]); err == nil {
			set = "ctx.Neighbors(" + l + ").Addrs()"
		} else if ns, err := g.nodesetExpr(s.Args[1]); err == nil {
			set = "append([]overlay.Address(nil), " + ns + "...)"
		} else if n, err := g.expr(s.Args[1]); err == nil {
			set = "[]overlay.Address{" + n + "}"
		} else {
			return err
		}
		g.pf("%sctx.NotifyNeighbors(overlay.NbrType%s, %s)\n", ind, kind, set)
	default:
		return fmt.Errorf("unknown primitive statement %q", s.Fn)
	}
	return nil
}

// sendStmt translates the three ways a message leaves: send msg(dest, ...)
// to a node, at the priority of its via clause if it has one, and route
// msg(key, ...) and multicast msg(group, ...) through the layer below. The
// message is built in the agent's send slot (see msgScratch): each of the
// three encodes it before returning and keeps nothing. One call expression,
// so the destination is still evaluated before the fields. It also
// translates log msg(l, ...), which appends a copy of the message to the
// bounded log l of that message.
func (g *generator) sendStmt(s *dsl.CallStmt, ind string) error {
	m, ok := g.msgs[s.Msg]
	if !ok {
		return fmt.Errorf("%s of undeclared message %q", s.Fn, s.Msg)
	}
	var inits []string
	set := map[string]bool{}
	for _, fi := range s.Fields {
		i := slices.IndexFunc(m.Fields, func(f dsl.Field) bool { return f.Name == fi.Name })
		switch {
		case i < 0:
			return fmt.Errorf("message %q has no field %q", s.Msg, fi.Name)
		case set[fi.Name]:
			return fmt.Errorf("message %q field %q set twice", s.Msg, fi.Name)
		}
		set[fi.Name] = true
		v, err := g.expr(fi.Value)
		if err != nil {
			return err
		}
		typ := m.Fields[i].Type
		v = g.convert(typ, fi.Value, v)
		if typ == "buffer" && s.Fn == "log" {
			// A log outlives the frame a received buffer is a view of.
			v = "append([]byte(nil), " + v + "...)"
		}
		inits = append(inits, fmt.Sprintf("%s: %s", camel(fi.Name), v))
	}
	lit := fmt.Sprintf("%s{%s}", msgTypeName(s.Msg), strings.Join(inits, ", "))
	if s.Fn == "log" {
		id, _ := s.Args[0].(dsl.Ident)
		v := g.varTypes[id.Name]
		if v.Kind != dsl.VarLog || v.Type != s.Msg {
			return fmt.Errorf("log %s(%s, ...): %q is not a declared log of %s", s.Msg, id.Name, id.Name, s.Msg)
		}
		g.pf("%sa.%s = core.LogAppend(a.%s, %s, %s)\n", ind, camel(id.Name), camel(id.Name), lit, g.resolve(v.Max))
		return nil
	}
	dest, err := g.expr(s.Args[0])
	if err != nil {
		return err
	}
	msg := fmt.Sprintf("core.Put(&a.io.tx.%s, %s)", camel(s.Msg), lit)
	switch s.Fn {
	case "route":
		g.pf("%s_ = core.RouteMsg(ctx, %s, %s)\n", ind, dest, msg)
	case "multicast":
		g.pf("%s_ = core.MulticastMsg(ctx, %s, %s)\n", ind, dest, msg)
	case "collect":
		g.pf("%s_ = core.CollectMsg(ctx, %s, %s)\n", ind, dest, msg)
	default:
		pri := "overlay.PriorityDefault"
		if s.Via != nil {
			if pri, err = g.expr(s.Via); err != nil {
				return err
			}
			pri = g.asInt(s.Via, pri)
		}
		g.pf("%s_ = ctx.Send(%s, %s, %s)\n", ind, dest, msg, pri)
	}
	return nil
}

// entry resolves a keytable entry's field through format, which receives
// the table's Go name, the key and the field's Go name, and returns the
// field's declared type.
func (g *generator) entry(e dsl.EntryExpr, format string) (string, string, error) {
	v, ok := g.varTypes[e.Table]
	if !ok || v.Kind != dsl.VarKeyTable {
		return "", "", fmt.Errorf("%q is not a declared keytable", e.Table)
	}
	i := slices.IndexFunc(v.Fields, func(f dsl.Field) bool { return f.Name == e.Field })
	if i < 0 {
		return "", "", fmt.Errorf("keytable %q has no field %q", e.Table, e.Field)
	}
	k, err := g.expr(e.Key)
	if err != nil {
		return "", "", err
	}
	return fmt.Sprintf(format, camel(e.Table), k, camel(e.Field)), v.Fields[i].Type, nil
}

// lvalue resolves the target of an assignment to a keytable entry's field,
// which the write makes, or to a field of the message being handled, and
// returns its declared type.
func (g *generator) lvalue(s *dsl.AssignStmt) (string, string, error) {
	if s.Entry != nil {
		return g.entry(*s.Entry, "core.KeyEntry(&a.%s, %s).%s")
	}
	if g.curMsg != nil {
		for _, f := range g.curMsg.Fields {
			if f.Name == s.Target {
				return "m." + camel(f.Name), f.Type, nil
			}
		}
	}
	return "", "", fmt.Errorf("assignment to field %q of no message being handled", s.Target)
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
		return "", fmt.Errorf("%s is not a number", e.Value)
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
		if e.Op != "&&" && e.Op != "||" {
			// An int operand of a double operation converts to double.
			l, r = g.convert(g.typeOf(e.R), e.L, l), g.convert(g.typeOf(e.L), e.R, r)
		}
		return fmt.Sprintf("(%s %s %s)", l, e.Op, r), nil
	case dsl.CallExpr:
		return g.callExpr(e)
	case dsl.EntryExpr:
		read, typ, err := g.entry(e, "core.KeyRead(a.%s, %s).%s")
		if typ == "tally" {
			return "", fmt.Errorf("the tally %s is read through the list primitives", e)
		}
		return read, err
	}
	return "", fmt.Errorf("unknown expression %T", e)
}

func (g *generator) ident(name string) (string, error) {
	if _, local := g.locals[name]; local || g.loopVars[name] != "" {
		g.loopReads[name]++
		return goName(name), nil
	}
	if b, ok := builtins[name]; ok {
		return b.form, g.bound(name, b.form)
	}
	if c, ok := g.consts[name]; ok {
		return c, nil
	}
	if v, ok := g.varTypes[name]; ok && v.Kind == dsl.VarPlain {
		return "a." + camel(name), nil
	}
	if pri, ok := g.priority(name); ok {
		return pri, nil
	}
	return "", fmt.Errorf("unknown identifier %q", name)
}

// priority resolves a transport's name, as a value: its priority, the
// transport's index in declaration order.
func (g *generator) priority(name string) (string, bool) {
	i := slices.IndexFunc(g.spec.Transports, func(t dsl.Transport) bool { return t.Name == name })
	return strconv.Itoa(i), i >= 0
}

// builtins are the builtin identifiers, each with its Go form and mac type.
// A form through ev or call reads a parameter only a recv or forward, or
// an API, transition's handler has (bound).
var builtins = map[string]struct{ form, typ string }{
	"self": {"ctx.Self()", "node"}, "self_key": {"ctx.SelfKey()", "key"},
	"nil_node": {"overlay.NilAddress", "node"}, "true": {"true", "bool"}, "false": {"false", "bool"},
	"from":      {"ev.From", "node"},
	"bootstrap": {"call.Bootstrap", "node"}, "payload": {"call.Payload", "buffer"},
	"payload_type": {"call.PayloadType", "int"}, "dest": {"call.Dest", "key"},
	"dest_ip": {"call.DestIP", "node"}, "group": {"call.Group", "key"},
	"priority": {"call.Priority", "int"}, "failed": {"call.Failed", "node"},
	"neighbors": {"call.Neighbors", "nodeset"},
}

// typeOf infers the mac type of e, or "" where it does not matter to the
// translation: enough to convert an int operand of a double operation.
func (g *generator) typeOf(e dsl.Expr) string {
	switch e := e.(type) {
	case dsl.IntLit:
		if isDouble(e.Value) {
			return "double"
		}
		return "int"
	case dsl.Ident:
		if t, ok := g.locals[e.Name]; ok {
			return t
		}
		if t := g.loopVars[e.Name]; t != "" {
			return t
		}
		if b, ok := builtins[e.Name]; ok {
			return b.typ
		}
		if c, ok := g.consts[e.Name]; ok {
			return g.typeOf(dsl.IntLit{Value: c})
		}
		if _, ok := g.priority(e.Name); ok {
			return "int"
		}
		return g.varTypes[e.Name].Type
	case dsl.NotExpr:
		return "bool"
	case dsl.BinExpr:
		switch e.Op {
		case "==", "!=", "<", ">", "<=", ">=", "&&", "||":
			return "bool"
		}
		l, r := g.typeOf(e.L), g.typeOf(e.R)
		switch {
		case l == "double" || r == "double":
			return "double"
		case l == "":
			return r
		}
		return l
	case dsl.EntryExpr:
		v := g.varTypes[e.Table]
		if i := slices.IndexFunc(v.Fields, func(f dsl.Field) bool { return f.Name == e.Field }); i >= 0 {
			return v.Fields[i].Type
		}
	case dsl.CallExpr:
		if id, ok := e.FieldName(); ok && g.curMsg != nil {
			if i := slices.IndexFunc(g.curMsg.Fields, func(f dsl.Field) bool { return f.Name == id }); i >= 0 {
				return g.curMsg.Fields[i].Type
			}
		}
		return exprPrims[e.Fn].typ
	}
	return ""
}

// isDouble reports whether a number token is a floating-point literal.
func isDouble(v string) bool {
	if strings.HasPrefix(v, "0x") || strings.HasPrefix(v, "0X") {
		return strings.ContainsAny(v, "pP")
	}
	return strings.ContainsAny(v, ".eE")
}

// convert converts s, the translation of e, to the Go type of the mac type
// want: an int, short or time value becomes a float64 where a double is
// wanted. An untyped Go constant needs no conversion.
func (g *generator) convert(want string, e dsl.Expr, s string) string {
	switch g.typeOf(e) {
	case "int", "short", "char", "time":
		if want == "double" && !g.constExpr(e) {
			return "float64(" + s + ")"
		}
	}
	return s
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
		_, transport := g.priority(e.Name)
		return (ok || transport) && !local && g.loopVars[e.Name] == ""
	}
	return false
}

// untyped reports whether Go reads e as an untyped constant: a literal, a
// declared constant, or arithmetic over them.
func (g *generator) untyped(e dsl.Expr) bool {
	if b, ok := e.(dsl.BinExpr); ok {
		return g.untyped(b.L) && g.untyped(b.R)
	}
	return g.constExpr(e)
}

// asInt converts a translated int32 expression to int, leaving an untyped
// constant as it is.
func (g *generator) asInt(e dsl.Expr, s string) string {
	if g.constExpr(e) {
		return s
	}
	return "int(" + s + ")"
}

func (g *generator) callExpr(e dsl.CallExpr) (string, error) {
	if e.Fn == "field" {
		if err := arity(e.Fn, len(e.Args), 1, 1); err != nil {
			return "", err
		}
		if g.curMsg == nil {
			return "", fmt.Errorf("field() outside a message transition")
		}
		name, _ := e.FieldName()
		if slices.ContainsFunc(g.curMsg.Fields, func(f dsl.Field) bool { return f.Name == name }) {
			return "m." + camel(name), nil
		}
		return "", fmt.Errorf("message %q has no field %q", g.curMsg.Name, e.Args[0].String())
	}
	p, ok := exprPrims[e.Fn]
	if !ok {
		return "", fmt.Errorf("unknown primitive %q", e.Fn)
	}
	return g.translate(e.Fn, p, e.Args)
}
