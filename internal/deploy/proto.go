// Package deploy is the live-deployment subsystem: the paper's "run the
// same code on a real network" pillar (§4.3, ModelNet/PlanetLab in the
// original) realized as a controller/agent architecture. `macedon agent`
// runs ONE overlay node per OS process over livenet sockets; `macedon
// deploy` launches the fleet, compiles a declarative scenario to
// wall-clock directives — churn becomes SIGKILL and process restart,
// partitions and degradations become per-peer shaping filters inside the
// livenet endpoints, workloads become timed control-plane commands — and
// streams per-node events and metrics back over the control protocol to
// render the same per-phase report the emulated path emits. docs/deploy.md
// is the subsystem tour; the live-vs-sim conformance harness
// (live_test.go) runs one scenario on both backends and requires the
// protocol-level metrics to agree.
package deploy

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"macedon/internal/check"
)

// maxFrame bounds a control frame; anything larger is a protocol error.
const maxFrame = 1 << 20

// recvStep bounds one read of a frame body: the body grows as its bytes
// arrive, so a header promising more than the peer sends costs what it sent.
const recvStep = 4 << 10

// Control message kinds.
const (
	KindHello   = "hello"   // agent → controller, first message on connect
	KindConfig  = "config"  // controller → agent, in response to hello
	KindShape   = "shape"   // controller → agent, replace shaping rules
	KindOp      = "op"      // controller → agent, workload operation
	KindPoll    = "poll"    // controller → agent, request metrics
	KindMetrics = "metrics" // agent → controller, poll response
	KindEvent   = "event"   // agent → controller, streamed node event
	KindQuit    = "quit"    // controller → agent, stop and exit
)

// Msg is the control protocol envelope: one frame, one message. Exactly
// the field matching Kind is populated.
type Msg struct {
	Kind    string       `json:"kind"`
	Hello   *Hello       `json:"hello,omitempty"`
	Config  *AgentConfig `json:"config,omitempty"`
	Shape   *ShapeCmd    `json:"shape,omitempty"`
	Op      *OpCmd       `json:"op,omitempty"`
	Metrics *Metrics     `json:"metrics,omitempty"`
	Event   *Event       `json:"event,omitempty"`
	// PollState, on a poll, asks the agent to extract its overlay routing
	// state alongside the counters; State carries it back on the metrics
	// reply. The correctness plane's phase-boundary invariant checks ride
	// the existing poll round trip rather than a new message kind.
	PollState bool             `json:"poll_state,omitempty"`
	State     *check.NodeState `json:"state,omitempty"`
}

// Hello identifies a connecting agent process.
type Hello struct {
	// Node is the agent's node index (from its command line).
	Node int `json:"node"`
	// Pid is the agent's OS process id.
	Pid int `json:"pid"`
}

// AgentConfig tells a fresh agent everything it needs to become overlay
// node Node: the full fleet address table, the protocol stack, and the
// multicast session. The agent derives the rest from Node: its overlay
// address is scenario.Addr(Node), the one the emulated cluster assigns
// (so live and sim runs of one scenario route the identical key space),
// the bootstrap is node 0, and node 0 creates the session group.
type AgentConfig struct {
	Node int `json:"node"`
	// Protocol names the stack and Params are the scenario's params its
	// agents are built with (scenario.ResolveStack).
	Protocol string         `json:"protocol"`
	Params   map[string]int `json:"params,omitempty"`
	// Table maps every fleet address (decimal string) to "host:port".
	Table map[string]string `json:"table"`
	// HeartbeatAfterNs/FailAfterNs tune the engine failure detector
	// exactly as the scenario's fields do for the emulated run.
	HeartbeatAfterNs int64 `json:"heartbeat_after_ns,omitempty"`
	FailAfterNs      int64 `json:"fail_after_ns,omitempty"`
	// Group, when nonzero semantics apply (HasGroup), is the multicast
	// session key; the bootstrap creates it, everyone else joins.
	HasGroup bool   `json:"has_group,omitempty"`
	Group    uint32 `json:"group,omitempty"`
	// Shape carries the shaping rules already in force (an agent restarted
	// mid-partition must come back inside it).
	Shape *ShapeCmd `json:"shape,omitempty"`
	// MetricsPort, when nonzero, makes the agent serve its observability
	// plane over HTTP on MetricsHost:MetricsPort: Prometheus text-format
	// metrics at /metrics and a JSON status snapshot at /debug/obs.
	MetricsPort int `json:"metrics_port,omitempty"`
	// MetricsHost is the metrics listener's bind address; empty means
	// 127.0.0.1. Real-cluster deployments bind a routable interface (or
	// 0.0.0.0) so an external Prometheus can scrape the fleet.
	MetricsHost string `json:"metrics_host,omitempty"`
	// Obs streams the agent's sampled structured event log back over the
	// control connection (EvObs events), rate-limited by a wall-clock token
	// bucket so a busy node cannot flood the controller. It also puts the
	// agent's exposition page in every poll reply (Metrics.Expo), so the
	// controller needs no scrape path to NAT'd hosts.
	Obs bool `json:"obs,omitempty"`
}

// PeerRule is one serialized shaping rule.
type PeerRule struct {
	Peer    uint32  `json:"peer"`
	Drop    bool    `json:"drop,omitempty"`
	Loss    float64 `json:"loss,omitempty"`
	DelayNs int64   `json:"delay_ns,omitempty"`
}

// ShapeCmd replaces the agent's entire shaping state: the listed per-peer
// rules plus an optional default rule for unlisted peers.
type ShapeCmd struct {
	Rules   []PeerRule `json:"rules,omitempty"`
	Default *PeerRule  `json:"default,omitempty"`
}

// OpCmd is one workload operation the agent must issue.
type OpCmd struct {
	// ID tags the operation; it rides the payload type field so deliver
	// and forward events can be matched to it, exactly as in the emulator.
	ID int `json:"id"`
	// Kind is "lookup" or "multicast".
	Kind string `json:"op"`
	// Key is the lookup target.
	Key uint32 `json:"key,omitempty"`
	// Size is the payload size in bytes.
	Size int `json:"size"`
}

// Event kinds an agent streams.
const (
	EvDeliver = "deliver" // workload payload delivered at this node
	EvForward = "forward" // workload payload forwarded through this node
	EvState   = "state"   // a protocol instance changed FSM state
	EvFail    = "fail"    // the failure detector declared a peer dead
	EvObs     = "obs"     // one sampled structured event-log line
)

// Event is one streamed per-node event.
type Event struct {
	Kind string `json:"ev"`
	// Op is the workload operation id (deliver, forward).
	Op int `json:"opid,omitempty"`
	// AtUnixNano is the agent's wall clock when the event fired. On one
	// host this is directly comparable to the controller's clock.
	AtUnixNano int64 `json:"at"`
	// Proto and State describe state events; Peer describes failures.
	Proto string `json:"proto,omitempty"`
	From  string `json:"from,omitempty"`
	State string `json:"state,omitempty"`
	Peer  uint32 `json:"peer,omitempty"`
	// Next is the next-hop overlay address of a forward event, so the
	// controller can reconstruct the hop chain of an operation trace.
	Next uint32 `json:"next,omitempty"`
	// Line is one rendered event-log record (EvObs).
	Line string `json:"line,omitempty"`
}

// Metrics is an agent's counter snapshot: engine counters summed over the
// protocol stack plus livenet socket counters.
type Metrics struct {
	MsgsSent     uint64 `json:"msgs_sent"`
	MsgsRecv     uint64 `json:"msgs_recv"`
	BytesSent    uint64 `json:"bytes_sent"`
	BytesRecv    uint64 `json:"bytes_recv"`
	Failures     uint64 `json:"failures"`
	NetSent      uint64 `json:"net_sent"`
	NetRecv      uint64 `json:"net_recv"`
	NetBytesSent uint64 `json:"net_bytes_sent"`
	NetBytesRecv uint64 `json:"net_bytes_recv"`
	ShapeDrops   uint64 `json:"shape_drops"`
	LossDrops    uint64 `json:"loss_drops"`
	// Expo is the agent's full exposition page, captured at the same
	// instant as the counters above (obs-enabled agents only): the one
	// source of the fleet pages a live report's exposition merges.
	Expo string `json:"expo,omitempty"`
}

// Conn frames control messages over a TCP connection: 4-byte big-endian
// length prefix, JSON body. Writes are serialized; reads belong to one
// reader goroutine.
type Conn struct {
	c  net.Conn
	r  *bufio.Reader
	wm sync.Mutex
	w  *bufio.Writer
}

// NewConn wraps a connection.
func NewConn(c net.Conn) *Conn {
	return &Conn{c: c, r: bufio.NewReader(c), w: bufio.NewWriter(c)}
}

// Send writes one message.
func (c *Conn) Send(m *Msg) error {
	body, err := json.Marshal(m)
	if err != nil {
		return err
	}
	if len(body) > maxFrame {
		return fmt.Errorf("deploy: control frame of %d bytes", len(body))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	c.wm.Lock()
	defer c.wm.Unlock()
	if _, err := c.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := c.w.Write(body); err != nil {
		return err
	}
	return c.w.Flush()
}

// Recv reads one message.
func (c *Conn) Recv() (*Msg, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(c.r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("deploy: control frame of %d bytes", n)
	}
	body := make([]byte, 0, min(n, recvStep))
	for len(body) < int(n) {
		step := min(int(n)-len(body), recvStep)
		body = slices.Grow(body, step)
		k, err := io.ReadFull(c.r, body[len(body):len(body)+step])
		body = body[:len(body)+k]
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // the header promised more
		}
		if err != nil {
			return nil, err
		}
	}
	var m Msg
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("deploy: bad control frame: %w", err)
	}
	return &m, nil
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.c.Close() }

// SetDeadline bounds the next read or write.
func (c *Conn) SetDeadline(t time.Time) error { return c.c.SetDeadline(t) }
