// Package dsl implements the MACEDON domain-specific language of the
// paper's Figure 4: a lexer, recursive-descent parser, and declaration
// validator for .mac protocol specifications. The AST it produces drives
// the code generator (internal/codegen), which emits Go agents for the
// engine.
//
// A specification declares a protocol header (name, optional base layer and
// the int params it sets on it, addressing mode, trace level), constants,
// FSM states, neighbor types, transports, messages, auxiliary data (scalars,
// timers, neighbor lists, and the indexed collections
// nodeset/nodetable/keymap), a routing
// declaration naming the variables that hold the routing state, and guarded
// transitions whose bodies are written in a C-like action language:
// assignments, handler-scoped locals, if/else, foreach over collections,
// early return, message transmission, and the action-library primitives
// (state changes, timer scheduling, neighbor/list/table/map management,
// ring-interval and prefix key arithmetic). The full language reference is
// docs/maclang.md.
//
// A statement outside the grammar is a parse error. Parse and Validate
// errors carry line:column positions (Error) for `macedon check`
// diagnostics; the calls in transition bodies are checked by the code
// generator, which reports with the same Error.
package dsl

import (
	"fmt"
	"slices"
)

// Spec is a parsed PROTOCOL SPECIFICATION.
type Spec struct {
	Name    string // protocol name
	Uses    string // base protocol for layering ("" when lowest)
	UsesPos Pos    // the base's name in the header
	// BaseParams are the values the header sets on the base's int params,
	// each an int literal or int constant: `uses scribe(max_children = 16)`.
	BaseParams []Constant
	Addressing string // "hash" (default) or "ip"
	Trace      string // "off" (default), "low", "med", "high"
	Pos        Pos    // the protocol header

	Constants     []Constant
	States        []string
	StatePos      []Pos // StatePos[i] is where States[i] is declared
	NeighborTypes []NeighborType
	Transports    []Transport
	Messages      []Message
	StateVars     []StateVar
	Routing       *Routing // nil when the spec declares none
	Transitions   []Transition
}

// Constant is one CONSTANTS entry.
type Constant struct {
	Name  string
	Value string
	Pos   Pos
}

// NeighborType declares a neighbor set type with per-neighbor fields.
type NeighborType struct {
	Name   string
	Max    string // literal or constant name; "" = 1
	Fields []Field
	Pos    Pos
}

// Transport declares a transport instance: kind TCP, UDP, or SWP.
type Transport struct {
	Kind string
	Name string
	Pos  Pos
}

// Message declares a message with an optional default transport binding.
type Message struct {
	Transport string // "" for higher-layer messages
	Name      string
	Fields    []Field
	Pos       Pos
}

// Field is a typed field in a message or neighbor type.
type Field struct {
	Type string // int, short, char, double, time, bool, key, node, buffer, string, nodeset, keyset, intset, timeset, tickets
	Name string
	Pos  Pos
}

// StateVarKind discriminates auxiliary-data entries.
type StateVarKind int

// State variable kinds.
const (
	VarPlain StateVarKind = iota // typed scalar
	VarTimer
	VarNeighborList
	VarTable    // fixed-size indexed node table ("nodetable name SIZE;")
	VarKeyTable // records keyed by key, node or int ("keytable name [by node|int] { fields }")
	VarLog      // bounded log of one message type ("log msg name SIZE;")
)

// StateVar is one auxiliary_data entry.
type StateVar struct {
	Kind       StateVarKind
	Type       string // scalar type, the neighbor type name, or a log's message
	Name       string
	Period     string  // timers: default period expression ("" = none)
	Periodic   bool    // timers: auto re-arm
	Max        string  // neighbor lists: capacity; node tables and logs: size
	FailDetect bool    // neighbor lists: engine failure monitoring
	Fields     []Field // keytables: the record's fields
	KeyType    string  // keytables: key (the default), node or int
	Pos        Pos
}

// RoutingKind enumerates the structural families a routing declaration can
// name.
type RoutingKind int

// Routing kinds. The zero value names none.
const (
	RoutingRing RoutingKind = iota + 1
	RoutingLeafset
	RoutingTree
)

// Role is one role of a routing kind. A list role takes a nodeset, a
// nodetable or a neighbor list; any other role takes a node or a neighbor
// list, whose first member fills it.
type Role struct {
	Name string
	List bool
}

// routingKinds names each kind and lists its roles, indexed by kind.
var routingKinds = [...]struct {
	name  string
	roles []Role
}{
	RoutingRing:    {"ring", []Role{{"succ", true}, {"pred", false}, {"fingers", true}}},
	RoutingLeafset: {"leafset", []Role{{"leafset", true}}},
	RoutingTree:    {"tree", []Role{{"root", false}, {"parent", false}, {"children", true}}},
}

// routingKindNamed returns the kind a declaration names, or 0.
func routingKindNamed(name string) RoutingKind {
	for k, d := range routingKinds {
		if k > 0 && d.name == name {
			return RoutingKind(k)
		}
	}
	return 0
}

func (k RoutingKind) valid() bool { return k > 0 && int(k) < len(routingKinds) }

// String names the kind as the grammar does.
func (k RoutingKind) String() string {
	if !k.valid() {
		return fmt.Sprintf("RoutingKind(%d)", int(k))
	}
	return routingKinds[k].name
}

// Roles lists the kind's roles in the order docs/maclang.md gives them.
func (k RoutingKind) Roles() []Role {
	if !k.valid() {
		return nil
	}
	return routingKinds[k].roles
}

// Role looks up one of the kind's roles by name.
func (k RoutingKind) Role(name string) (Role, bool) {
	i := slices.IndexFunc(k.Roles(), func(ro Role) bool { return ro.Name == name })
	if i < 0 {
		return Role{}, false
	}
	return k.Roles()[i], true
}

// Routing is the spec's routing declaration: the kind of structure the
// protocol maintains, and which auxiliary variable holds each of its roles.
type Routing struct {
	Kind  RoutingKind
	Binds []RoleBind
	Pos   Pos
}

// RoleBind binds one role of the routing kind to an auxiliary variable.
type RoleBind struct {
	Role string
	Var  string
	Pos  Pos
}

// TransitionKind discriminates the three event classes of §3.1.
type TransitionKind int

// Transition kinds.
const (
	TransAPI TransitionKind = iota
	TransTimer
	TransRecv
	TransForward
)

// String names the kind as the grammar does.
func (k TransitionKind) String() string {
	switch k {
	case TransAPI:
		return "API"
	case TransTimer:
		return "timer"
	case TransRecv:
		return "recv"
	default:
		return "forward"
	}
}

// Transition is one TRANSITIONS entry.
type Transition struct {
	Guard   StateGuard
	Kind    TransitionKind
	Name    string // API kind, timer name, or message name
	Locking string // "read" or "write" (default)
	Body    []Stmt
	Pos     Pos
}

// StateGuard is a parsed STATE EXPR.
type StateGuard interface {
	guard()
	String() string
}

// GuardAny matches every state.
type GuardAny struct{}

func (GuardAny) guard()         {}
func (GuardAny) String() string { return "any" }

// GuardStates matches an alternation of states.
type GuardStates struct{ States []string }

func (GuardStates) guard() {}
func (g GuardStates) String() string {
	s := ""
	for i, st := range g.States {
		if i > 0 {
			s += "|"
		}
		s += st
	}
	return "(" + s + ")"
}

// GuardNot negates a guard.
type GuardNot struct{ Inner StateGuard }

func (GuardNot) guard()           {}
func (g GuardNot) String() string { return "!" + g.Inner.String() }

// Stmt is one statement of the action language (§3.3).
type Stmt interface {
	stmt()
	Position() Pos
}

// CallStmt invokes a primitive: state_change, timer_sched, neighbor_add,
// deliver, notify, upcall/downcall, or a message transmission
// ("send <msg>(dest, field=value, ...) [via pri]") or logging
// ("log <msg>(log, field=value, ...)").
type CallStmt struct {
	Fn   string
	Args []Expr
	// Msg is set for transmission statements: the message being sent, with
	// Args[0] the destination and Fields the named field initializers.
	Msg    string
	Fields []FieldInit
	Via    Expr // a send's priority: a transport name or an int; nil = the message's binding
	Pos    Pos
}

// FieldInit is a named field initializer in a transmission statement.
type FieldInit struct {
	Name  string
	Value Expr
}

func (s *CallStmt) stmt()         {}
func (s *CallStmt) Position() Pos { return s.Pos }

// AssignStmt assigns to a declared state variable or handler local, to a
// field of a keytable entry ("groups[g].parent = from;"), or to a field of
// the message being handled ("field(joiner) = self;").
type AssignStmt struct {
	Target string     // the variable, local or message field
	Entry  *EntryExpr // set for a keytable entry's field; Target is then ""
	Field  bool       // Target names a field of the message being handled
	Value  Expr
	Pos    Pos
}

func (s *AssignStmt) stmt()         {}
func (s *AssignStmt) Position() Pos { return s.Pos }

// IfStmt is a conditional with optional else.
type IfStmt struct {
	Cond Expr
	Then []Stmt
	Else []Stmt
	Pos  Pos
}

func (s *IfStmt) stmt()         {}
func (s *IfStmt) Position() Pos { return s.Pos }

// ForeachStmt iterates a node collection: a neighbor list, a nodeset state
// variable, a nodetable, or a nodeset-valued expression such as a message
// field — "foreach (k in kids) { ... }", "foreach (l in field(leaves)) ...".
type ForeachStmt struct {
	Var  string
	List Expr
	Body []Stmt
	Pos  Pos
}

func (s *ForeachStmt) stmt()         {}
func (s *ForeachStmt) Position() Pos { return s.Pos }

// LocalStmt declares a handler-scoped local variable with an optional
// initializer: "node best;", "int row = 0;". Locals are visible from the
// declaration to the end of the enclosing block.
type LocalStmt struct {
	Type  string // scalar type: int, double, bool, key, node, ...
	Name  string
	Value Expr // nil when the declaration has no initializer
	Pos   Pos
}

func (s *LocalStmt) stmt()         {}
func (s *LocalStmt) Position() Pos { return s.Pos }

// ReturnStmt ends the enclosing transition early: "return;".
type ReturnStmt struct {
	Pos Pos
}

func (s *ReturnStmt) stmt()         {}
func (s *ReturnStmt) Position() Pos { return s.Pos }

// Expr is an action-language expression.
type Expr interface {
	expr()
	String() string
}

// Ident references a state variable or builtin (from, self, bootstrap).
type Ident struct{ Name string }

func (Ident) expr()            {}
func (e Ident) String() string { return e.Name }

// IntLit is an integer literal.
type IntLit struct{ Value string }

func (IntLit) expr()            {}
func (e IntLit) String() string { return e.Value }

// CallExpr invokes a value primitive: field(x), neighbor_size(l),
// neighbor_random(l), neighbor_query(l, e), neighbor_full(l).
type CallExpr struct {
	Fn   string
	Args []Expr
}

func (CallExpr) expr() {}
func (e CallExpr) String() string {
	s := e.Fn + "("
	for i, a := range e.Args {
		if i > 0 {
			s += ", "
		}
		s += a.String()
	}
	return s + ")"
}

// EntryExpr reads one field of a keytable entry: "groups[g].member". An
// absent entry reads as the zero record.
type EntryExpr struct {
	Table string
	Key   Expr
	Field string
}

func (EntryExpr) expr() {}
func (e EntryExpr) String() string {
	return e.Table + "[" + e.Key.String() + "]." + e.Field
}

// BinExpr is a binary operation: == != < > <= >= && || + - .
type BinExpr struct {
	Op   string
	L, R Expr
}

func (BinExpr) expr() {}
func (e BinExpr) String() string {
	return "(" + e.L.String() + " " + e.Op + " " + e.R.String() + ")"
}

// NotExpr negates a boolean expression.
type NotExpr struct{ Inner Expr }

func (NotExpr) expr()            {}
func (e NotExpr) String() string { return "!" + e.Inner.String() }

// Pos locates a construct in the source for error messages.
type Pos struct {
	Line, Col int
}

// String renders the position.
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Error is a positioned specification error.
type Error struct {
	Pos Pos
	Msg string
}

// Error implements error.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }
