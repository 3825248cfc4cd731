package main

import (
	"bytes"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	failsignal "fsnewtop/internal/core"
	"fsnewtop/internal/group"
	"fsnewtop/internal/sm"
	"fsnewtop/transport"
)

// The layers are measured from outside, at four hooks the program already
// offers: a transport wrapper, a machine wrapper, the generator's own
// Multicast calls, and the counters each layer exports. Every hook is off
// (a single atomic load) until the meter is enabled, so the traced run can
// measure an untraced window and a traced window on the same cluster.

// Handler roles, derived from the address a handler is registered at.
const (
	roleLeader   = "leader"   // "<member>#L": a pair's leader FSO
	roleFollower = "follower" // "<member>#F": a pair's follower FSO
	roleInv      = "inv"      // "addr:<member>/inv": FS invocation endpoint
	roleORB      = "orb"      // "node:<member>": a member's ORB node
	roleOther    = "other"
)

var roles = []string{roleLeader, roleFollower, roleInv, roleORB}

func roleOf(a transport.Addr) string {
	s := string(a)
	switch {
	case strings.HasSuffix(s, "#L"):
		return roleLeader
	case strings.HasSuffix(s, "#F"):
		return roleFollower
	case strings.HasPrefix(s, "addr:") && strings.HasSuffix(s, "/inv"):
		return roleInv
	case strings.HasPrefix(s, "node:"):
		return roleORB
	}
	return roleOther
}

// countedKinds are the message kinds reported one by one; the rest are
// only in the totals.
var countedKinds = []string{
	failsignal.MsgNew, failsignal.MsgFwd, failsignal.MsgSingle, failsignal.MsgOut,
	"orb.req", "orb.rep",
}

// counter is a count plus accumulated nanoseconds.
type counter struct {
	n  atomic.Uint64
	ns atomic.Int64
}

func (c *counter) add(d time.Duration) {
	c.n.Add(1)
	c.ns.Add(int64(d))
}

// meter holds every hook's counters and the in-memory span log.
type meter struct {
	on atomic.Bool

	sends     counter
	sendBytes atomic.Uint64
	kinds     map[string]*counter // fixed key set: countedKinds
	handlers  map[string]*counter // fixed key set: roles + roleOther

	steps     counter
	outputs   atomic.Uint64
	rounds    atomic.Uint64 // leader inputs carrying application multicasts
	roundMsgs atomic.Uint64 // application multicasts in those inputs

	spans spanLog

	fsMu sync.Mutex
	// fsAt is when each member's leader machine first stepped a verified
	// fail-signal input: the moment its GC learned of a failure.
	fsAt map[string]time.Time
}

func newMeter(spanCap int) *meter {
	m := &meter{
		kinds:    make(map[string]*counter),
		handlers: make(map[string]*counter),
		spans:    spanLog{cap: spanCap, origin: time.Now()},
		fsAt:     make(map[string]time.Time),
	}
	for _, k := range countedKinds {
		m.kinds[k] = new(counter)
	}
	for _, r := range append(roles, roleOther) {
		m.handlers[r] = new(counter)
	}
	return m
}

// read adds the meter's cumulative counters to a probe (see probe).
func (m *meter) read(p map[string]float64) {
	p["m.sends"] = float64(m.sends.n.Load())
	p["m.send_ns"] = float64(m.sends.ns.Load())
	p["m.send_bytes"] = float64(m.sendBytes.Load())
	for k, c := range m.kinds {
		p["m.kind."+k] = float64(c.n.Load())
	}
	for r, c := range m.handlers {
		p["m.handler_ns."+r] = float64(c.ns.Load())
	}
	p["m.steps"] = float64(m.steps.n.Load())
	p["m.step_ns"] = float64(m.steps.ns.Load())
	p["m.outputs"] = float64(m.outputs.Load())
	p["m.rounds"] = float64(m.rounds.Load())
	p["m.round_msgs"] = float64(m.roundMsgs.Load())
}

// meteredNet is the transport wrapper: it counts and times every Send and
// every handler invocation, and forwards the optional capabilities
// (fault injection, stats, frame counts) so the layers above cannot tell
// it from the network it wraps.
type meteredNet struct {
	inner interface {
		transport.Transport
		transport.FaultInjector
		transport.StatsSource
		FramesSent() uint64
	}
	m *meter
}

var (
	_ transport.Transport     = (*meteredNet)(nil)
	_ transport.FaultInjector = (*meteredNet)(nil)
	_ transport.StatsSource   = (*meteredNet)(nil)
)

func (t *meteredNet) Register(addr transport.Addr, h transport.Handler) {
	c := t.m.handlers[roleOf(addr)]
	name := "net.handle." + roleOf(addr)
	t.inner.Register(addr, func(msg transport.Message) {
		if !t.m.on.Load() {
			h(msg)
			return
		}
		sp := t.m.spans.begin(name)
		start := time.Now()
		h(msg)
		end := time.Now()
		c.add(end.Sub(start))
		t.m.spans.end(sp, start, end)
	})
}

func (t *meteredNet) Deregister(addr transport.Addr) { t.inner.Deregister(addr) }

func (t *meteredNet) Send(from, to transport.Addr, kind string, payload []byte) error {
	if !t.m.on.Load() {
		return t.inner.Send(from, to, kind, payload)
	}
	sp := t.m.spans.begin("net.send")
	start := time.Now()
	err := t.inner.Send(from, to, kind, payload)
	end := time.Now()
	if err == nil {
		// The substrate counts only accepted sends; so does the meter.
		t.m.sends.add(end.Sub(start))
		t.m.sendBytes.Add(uint64(len(payload)))
		if c := t.m.kinds[kind]; c != nil {
			c.n.Add(1)
		}
	}
	t.m.spans.end(sp, start, end)
	return err
}

func (t *meteredNet) Close() { t.inner.Close() }

func (t *meteredNet) SetLinkProfile(a, b transport.Addr, p transport.Profile) {
	t.inner.SetLinkProfile(a, b, p)
}

func (t *meteredNet) SetOneWayProfile(a, b transport.Addr, p transport.Profile) {
	t.inner.SetOneWayProfile(a, b, p)
}

func (t *meteredNet) Block(a, b transport.Addr)            { t.inner.Block(a, b) }
func (t *meteredNet) Unblock(a, b transport.Addr)          { t.inner.Unblock(a, b) }
func (t *meteredNet) Partition(groups ...[]transport.Addr) { t.inner.Partition(groups...) }
func (t *meteredNet) Stats() transport.Stats               { return t.inner.Stats() }
func (t *meteredNet) FramesSent() uint64                   { return t.inner.FramesSent() }

// meteredMachine is the sm.Machine wrapper installed through
// fsnewtop.Config.WrapMachine: it times each Step and, at the leader,
// counts how many application multicasts each ordered input carries.
type meteredMachine struct {
	inner  sm.Machine
	m      *meter
	member string
	leader bool
	span   string
}

func (w *meteredMachine) Step(in sm.Input) []sm.Output {
	// The fail-signal stamp is taken even with the meter off: it is one
	// per fault, and failover cycles need it whether or not they are
	// metered.
	if w.leader && in.Kind == failsignal.InputFailSignal {
		w.m.noteFailSignal(w.member)
	}
	if !w.m.on.Load() {
		return w.inner.Step(in)
	}
	if w.leader {
		w.countRound(in)
	}
	sp := w.m.spans.begin(w.span)
	start := time.Now()
	outs := w.inner.Step(in)
	end := time.Now()
	w.m.steps.add(end.Sub(start))
	w.m.outputs.Add(uint64(len(outs)))
	w.m.spans.end(sp, start, end)
	return outs
}

// countRound counts the application multicasts in one leader input: a
// plain multicast is one, a client batch (the accumulation window's
// KindBatch) is its multicast items. Peer batches carry protocol kinds
// and are not rounds.
func (w *meteredMachine) countRound(in sm.Input) {
	switch in.Kind {
	case group.KindMcast:
		w.m.rounds.Add(1)
		w.m.roundMsgs.Add(1)
	case group.KindBatch:
		bm, err := group.UnmarshalBatchMsg(in.Payload)
		if err != nil {
			return
		}
		var n uint64
		for _, it := range bm.Items {
			if it.Kind == group.KindMcast {
				n++
			}
		}
		if n > 0 {
			w.m.rounds.Add(1)
			w.m.roundMsgs.Add(n)
		}
	}
}

func (m *meter) noteFailSignal(member string) {
	now := time.Now()
	m.fsMu.Lock()
	if _, ok := m.fsAt[member]; !ok {
		m.fsAt[member] = now
	}
	m.fsMu.Unlock()
}

// failSignalAt returns when member's GC first learned of a failure.
func (m *meter) failSignalAt(member string) (time.Time, bool) {
	m.fsMu.Lock()
	defer m.fsMu.Unlock()
	at, ok := m.fsAt[member]
	return at, ok
}

// forgetFailSignals clears the record for the next cluster, whose members
// reuse the names.
func (m *meter) forgetFailSignals() {
	m.fsMu.Lock()
	m.fsAt = make(map[string]time.Time)
	m.fsMu.Unlock()
}

func (m *meter) wrapMachine(member string, role failsignal.Role, inner sm.Machine) sm.Machine {
	leader := role == failsignal.Leader
	span := "group.step.follower"
	if leader {
		span = "group.step.leader"
	}
	return &meteredMachine{inner: inner, m: m, member: member, leader: leader, span: span}
}

// span is one timed call: its name, the goroutine it ran on, and its
// interval in nanoseconds since the log's origin. Parent is resolved when
// the log is written: the innermost span on the same goroutine whose
// interval contains this one.
type span struct {
	Name   string `json:"name"`
	G      uint64 `json:"g"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the log, -1 for a root
}

// spanLog keeps the first cap spans of the metered slices in memory. The
// goroutine id costs a stack read, so it is paid only while there is room.
type spanLog struct {
	cap    int
	origin time.Time
	mu     sync.Mutex
	spans  []span
	full   atomic.Bool
}

// begin returns a pending span, or nil once the log is full.
func (l *spanLog) begin(name string) *span {
	if l.full.Load() {
		return nil
	}
	return &span{Name: name, G: goid()}
}

func (l *spanLog) end(sp *span, start, end time.Time) {
	if sp == nil {
		return
	}
	l.mu.Lock()
	if len(l.spans) < l.cap {
		sp.Start = start.Sub(l.origin).Nanoseconds()
		sp.End = end.Sub(l.origin).Nanoseconds()
		l.spans = append(l.spans, *sp)
	}
	if len(l.spans) >= l.cap {
		l.full.Store(true)
	}
	l.mu.Unlock()
}

// goid reads the current goroutine's id from its stack header
// ("goroutine 123 [running]:").
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}
