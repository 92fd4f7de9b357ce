package core

import (
	"sync"

	"macedon/internal/overlay"
)

// qKind selects what a queued engine event does when its turn comes.
type qKind uint8

const (
	qFunc    qKind = iota // run fn: the fallback for rare events (init, Stop, Exec, upcalls, lifecycle hooks)
	qFrame                // a frame the mux reassembled: src, buf, hb
	qTimer                // a protocol timer expired: inst, ts, gen
	qAPI                  // an API transition on inst: call, recycled once it has run
	qDeliver              // a deliver() upcall issued by inst: buf, typ, src
	qSweep                // the failure detector's periodic pass
)

// event is one entry of a node's deferred-execution queue: a flat record
// whose kind says which operands are meaningful, so the per-message and
// per-timer paths queue without allocating a closure.
type event struct {
	kind qKind
	hb   bool            // qFrame: arrived on the heartbeat transport
	typ  int32           // qDeliver: payload type
	src  overlay.Address // qFrame, qDeliver
	gen  uint64          // qTimer: the timer generation that was armed
	inst *Instance       // qTimer, qAPI, qDeliver
	ts   *timerState     // qTimer
	call *APICall        // qAPI: node-owned, see hotPath.calls
	buf  []byte          // qFrame: the frame; qDeliver: the payload
	fn   func()          // qFunc
}

// ring is a FIFO of events on a power-of-two circular buffer that grows on
// demand and is then reused for the life of the node.
type ring struct {
	buf  []event
	head int
	n    int
}

func (q *ring) push(e event) {
	if q.n == len(q.buf) {
		grown := make([]event, max(4, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			grown[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
		}
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = e
	q.n++
}

func (q *ring) pop() event {
	e := q.buf[q.head]
	q.buf[q.head] = event{} // drop the references: a parked ring pins nothing
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return e
}

// hotPath is the node's per-event working storage: the deferred-execution
// queue and the buffers one event borrows and the next reuses. Nothing in
// it outlives an event chain — at every quiescent point the queue is empty
// and the scratch is garbage — so checkpoints skip it (StateCopyOpaque) and
// nothing here is sized before it is first needed.
type hotPath struct {
	mu       sync.Mutex // guards queue, draining and calls; never held while an event runs
	queue    ring
	draining bool
	calls    []*APICall // free list behind qAPI events

	w overlay.Writer // encode scratch: a frame lives until the transport's Send has copied it
	r overlay.Reader // decode scratch: done before the transition it feeds is dispatched

	sweepActs []sweepAct
}

// StateCopyOpaque keeps the hot-path scratch out of checkpoint images.
func (*hotPath) StateCopyOpaque() {}

// post enqueues ev on the node's serialized execution queue. If the queue is
// idle, ev (and everything it posts) runs before post returns; otherwise it
// runs when the current event chain drains, in FIFO order. This is what
// makes every cross-layer call deferred and every node
// single-logical-threaded.
func (n *Node) post(ev event) {
	n.hot.mu.Lock()
	n.postLocked(ev)
}

// postAPI queues an API transition on inst. The arguments are copied into a
// node-owned record that is recycled after the transition returns, so call
// may live on the caller's stack; handlers must not retain their *APICall.
func (n *Node) postAPI(inst *Instance, call *APICall) {
	h := &n.hot
	h.mu.Lock()
	var c *APICall
	if k := len(h.calls); k > 0 {
		c, h.calls = h.calls[k-1], h.calls[:k-1]
	} else {
		c = new(APICall)
	}
	*c = *call
	n.postLocked(event{kind: qAPI, inst: inst, call: c})
}

// postLocked is post with hot.mu held; it releases the lock.
func (n *Node) postLocked(ev event) {
	h := &n.hot
	if h.draining {
		h.queue.push(ev)
		h.mu.Unlock()
		return
	}
	h.draining = true
	for {
		h.mu.Unlock()
		n.run(&ev)
		h.mu.Lock()
		if ev.call != nil {
			*ev.call = APICall{}
			h.calls = append(h.calls, ev.call)
		}
		if h.queue.n == 0 {
			break
		}
		ev = h.queue.pop()
	}
	h.draining = false
	h.mu.Unlock()
}

// run executes one event. The node is single-threaded here: draining is set
// and only this goroutine runs events until the chain is empty.
func (n *Node) run(ev *event) {
	switch ev.kind {
	case qFunc:
		ev.fn()
	case qFrame:
		n.recvFrame(ev.hb, ev.src, ev.buf)
	case qTimer:
		ev.inst.fireTimer(ev.ts, ev.gen)
	case qAPI:
		ev.inst.dispatchAPI(ev.call)
	case qDeliver:
		ev.inst.deliverUp(ev.buf, ev.typ, ev.src)
	case qSweep:
		n.runSweep()
	}
}
