package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fsnewtop/internal/group"
	"fsnewtop/internal/newtop"
)

// app is the application on one cluster: it owns every member's delivery
// stream, builds each multicast's payload from the seed, checks every
// delivery against it, and stamps the events the metrics are made of.
// Times are nanoseconds since the app's origin.
type app struct {
	c       *cluster
	origin  time.Time
	size    int    // payload bytes
	block   []byte // seed-derived payload body
	seed    uint64
	mem     []*memberLog
	credits chan int // closed loop: one token per outstanding multicast
	mcast   []int64  // generator Multicast call durations (ns)
	lag     []int64  // open loop: how late each send was (ns)
	stop    chan struct{}
	wg      sync.WaitGroup

	// injAt is when the fault was injected (0: none yet). Consumers read
	// it to stamp reconfiguration and outage.
	injAt atomic.Int64
}

// memberLog is what one member's consumer saw.
type memberLog struct {
	idx int
	// smu guards sent alone, so a consumer holding its own mu can read
	// another member's send times; smu is never held while taking mu.
	smu sync.Mutex
	// sent[seq] is when multicast seq was due (open loop) or issued
	// (closed loop); seq numbers start at 1, index 0 is unused.
	sent []int64
	mu   sync.Mutex
	// log is the delivery order: origin<<32 | seq.
	log  []uint64
	seen [][]bool // seen[origin][seq]
	bad  []string // corrupt or duplicate deliveries
	// lat holds (due, latency) of own deliveries.
	lat      [][2]int64
	views    []viewEvent
	fullView int64    // first view with every member (0: not yet)
	fails    []string // sources of fail-signals the member was told of
	reconfig int64    // first view without the failed member, since injection
	outage   int64    // first post-injection delivery, since injection
}

type viewEvent struct {
	at      int64
	members []string
}

func newApp(c *cluster, size int, seed int64, outstanding int) *app {
	a := &app{
		c:      c,
		origin: time.Now(),
		size:   size,
		seed:   uint64(seed),
		stop:   make(chan struct{}),
	}
	a.block = make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(a.block)
	if outstanding > 0 {
		// Sized to the number of tokens: every member's W tokens can be
		// parked at once.
		a.credits = make(chan int, outstanding*len(c.svcs))
	}
	for i := range c.svcs {
		a.mem = append(a.mem, &memberLog{idx: i, sent: []int64{0}, seen: make([][]bool, len(c.svcs))})
	}
	for i, s := range c.svcs {
		a.wg.Add(1)
		var fails <-chan string
		if c.fs != nil {
			fails = c.fs[i].FailSignals()
		}
		go a.consume(a.mem[i], s, fails)
	}
	return a
}

func (a *app) now() int64 { return time.Since(a.origin).Nanoseconds() }

func (a *app) close() {
	close(a.stop)
	a.wg.Wait()
}

// tag is the per-message word derived from the seed, so a payload cannot
// be right by accident.
func (a *app) tag(origin, seq int) uint32 {
	x := a.seed ^ uint64(origin)<<40 ^ uint64(seq)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return uint32(x)
}

// payload builds multicast seq of member origin. A 3-byte payload is the
// paper's: origin and a 16-bit sequence number. A larger one also carries
// a 32-bit sequence number, a seed-derived tag and the seed's body.
func (a *app) payload(origin, seq int) []byte {
	p := make([]byte, a.size)
	if a.size < 8 {
		p[0], p[1], p[2] = byte(origin), byte(seq>>8), byte(seq)
		return p
	}
	copy(p, a.block)
	p[0] = byte(origin)
	binary.BigEndian.PutUint32(p[1:5], uint32(seq))
	t := a.tag(origin, seq)
	p[5], p[6], p[7] = byte(t>>16), byte(t>>8), byte(t)
	return p
}

// check decodes a delivered payload, returning its sequence number or an
// error when it is not exactly what origin multicast.
func (a *app) check(origin int, p []byte) (int, error) {
	if len(p) != a.size || int(p[0]) != origin {
		return 0, fmt.Errorf("payload of %d bytes claims origin %d", len(p), p[0])
	}
	if a.size < 8 {
		return int(p[1])<<8 | int(p[2]), nil
	}
	seq := int(binary.BigEndian.Uint32(p[1:5]))
	t := a.tag(origin, seq)
	if p[5] != byte(t>>16) || p[6] != byte(t>>8) || p[7] != byte(t) || !bytes.Equal(p[8:], a.block[8:]) {
		return 0, fmt.Errorf("payload %d#%d altered", origin, seq)
	}
	return seq, nil
}

func memberIndex(name string) int {
	i, err := strconv.Atoi(strings.TrimPrefix(name, "m"))
	if err != nil {
		return -1
	}
	return i
}

// consume drains one member's streams until the app stops.
func (a *app) consume(m *memberLog, s newtop.Service, fails <-chan string) {
	defer a.wg.Done()
	for {
		select {
		case d := <-s.Deliveries():
			a.deliver(m, d)
		case v := <-s.Views():
			a.view(m, v)
		case src := <-fails:
			m.mu.Lock()
			m.fails = append(m.fails, src)
			m.mu.Unlock()
		case <-a.stop:
			return
		}
	}
}

func (a *app) deliver(m *memberLog, d newtop.Delivery) {
	at := a.now()
	origin := memberIndex(d.Origin)
	m.mu.Lock()
	defer m.mu.Unlock()
	if origin < 0 || origin >= len(a.mem) || d.Group != groupName || d.Service != group.TotalSym {
		m.bad = append(m.bad, fmt.Sprintf("delivery from %q in %q", d.Origin, d.Group))
		return
	}
	seq, err := a.check(origin, d.Payload)
	if err != nil {
		m.bad = append(m.bad, err.Error())
		return
	}
	seen := m.seen[origin]
	for len(seen) <= seq {
		seen = append(seen, false)
	}
	m.seen[origin] = seen
	if seen[seq] {
		m.bad = append(m.bad, fmt.Sprintf("duplicate %d#%d", origin, seq))
		return
	}
	seen[seq] = true
	m.log = append(m.log, uint64(origin)<<32|uint64(seq))
	if inj := a.injAt.Load(); inj > 0 && m.outage == 0 {
		if due := a.mem[origin].sentAt(seq); due >= inj {
			m.outage = at - inj
		}
	}
	if origin != m.idx {
		return
	}
	if due := m.sentAt(seq); due >= 0 {
		m.lat = append(m.lat, [2]int64{due, at - due})
	}
	if a.credits != nil {
		a.credits <- m.idx
	}
}

// sentAt returns when seq was due, or -1.
func (m *memberLog) sentAt(seq int) int64 {
	m.smu.Lock()
	defer m.smu.Unlock()
	if seq < len(m.sent) {
		return m.sent[seq]
	}
	return -1
}

func (a *app) view(m *memberLog, v newtop.View) {
	at := a.now()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.views = append(m.views, viewEvent{at: at, members: v.Members})
	if m.fullView == 0 && len(v.Members) == len(a.mem) {
		m.fullView = at
	}
	if inj := a.injAt.Load(); inj > 0 && m.reconfig == 0 && !contains(v.Members, a.c.names[0]) {
		m.reconfig = at - inj
	}
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// waitFor polls cond until it holds or d passes.
func waitFor(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// formed reports whether every member has installed the full view.
func (a *app) formed() bool {
	for _, m := range a.mem {
		m.mu.Lock()
		ok := m.fullView > 0
		m.mu.Unlock()
		if !ok {
			return false
		}
	}
	return true
}

// formedAt returns when the last member installed the full view.
func (a *app) formedAt() int64 {
	var last int64
	for _, m := range a.mem {
		m.mu.Lock()
		if m.fullView > last {
			last = m.fullView
		}
		m.mu.Unlock()
	}
	return last
}

// unrecovered says what each survivor in among still lacks after a
// fault into m00: a view without it, or a delivery sent after it.
func (a *app) unrecovered(among []int) string {
	var out []string
	for _, i := range among {
		m := a.mem[i]
		m.mu.Lock()
		if m.reconfig == 0 {
			out = append(out, fmt.Sprintf("%s had installed no view without %s", a.c.names[i], a.c.names[0]))
		}
		if m.outage == 0 {
			out = append(out, fmt.Sprintf("%s had delivered nothing sent after the injection", a.c.names[i]))
		}
		m.mu.Unlock()
	}
	return strings.Join(out, "; ")
}

// multicast issues member i's next multicast, stamped due.
func (a *app) multicast(i int, due int64) error {
	m := a.mem[i]
	m.smu.Lock()
	seq := len(m.sent)
	m.sent = append(m.sent, due)
	m.smu.Unlock()
	p := a.payload(i, seq)
	start := time.Now()
	err := a.c.svcs[i].Multicast(groupName, group.TotalSym, p)
	a.mcast = append(a.mcast, time.Since(start).Nanoseconds())
	return err
}

// closedLoop is the saturating generator: one goroutine keeps every
// member's W multicasts outstanding, issuing member i's next one as soon
// as i delivers one of its own. It returns when stop closes.
func (a *app) closedLoop(w int, stop <-chan struct{}) error {
	for k := 0; k < w; k++ {
		for i := range a.mem {
			a.credits <- i
		}
	}
	for {
		select {
		case i := <-a.credits:
			if err := a.multicast(i, a.now()); err != nil {
				return err
			}
		case <-stop:
			return nil
		}
	}
}

// openLoop is the light generator: multicasts fall due at rate per
// second, round-robin over the members for which sending(i) holds, each
// timed from when it was due. It returns when stop closes.
func (a *app) openLoop(rate float64, sending func(i int) bool, stop <-chan struct{}) error {
	period := time.Duration(float64(time.Second) / rate)
	next := a.now()
	for k := 0; ; k++ {
		wait := time.Duration(next - a.now())
		if wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-stop:
				t.Stop()
				return nil
			}
		} else {
			select {
			case <-stop:
				return nil
			default:
			}
		}
		i := k % len(a.mem)
		if sending(i) {
			a.lag = append(a.lag, a.now()-next)
			if err := a.multicast(i, next); err != nil {
				return err
			}
		}
		next += period.Nanoseconds()
	}
}

// sentCount returns how many multicasts member i issued.
func (a *app) sentCount(i int) int {
	m := a.mem[i]
	m.smu.Lock()
	defer m.smu.Unlock()
	return len(m.sent) - 1
}

// delivered returns how many messages member i delivered.
func (a *app) delivered(i int) int {
	m := a.mem[i]
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.log)
}

// orderCheck verifies that every member in among delivered the same
// (origin, seq) sequence and nothing corrupt or duplicated; it returns
// one line per violation.
func (a *app) orderCheck(among []int) []string {
	var errs []string
	ref := a.mem[among[0]]
	ref.mu.Lock()
	refLog := append([]uint64(nil), ref.log...)
	ref.mu.Unlock()
	for _, i := range among {
		m := a.mem[i]
		m.mu.Lock()
		for _, b := range m.bad {
			errs = append(errs, fmt.Sprintf("%s: %s", a.c.names[i], b))
		}
		if len(m.log) != len(refLog) {
			errs = append(errs, fmt.Sprintf("%s delivered %d messages, %s %d",
				a.c.names[i], len(m.log), a.c.names[among[0]], len(refLog)))
		}
		n := len(m.log)
		if len(refLog) < n {
			n = len(refLog)
		}
		for k := 0; k < n; k++ {
			if m.log[k] != refLog[k] {
				errs = append(errs, fmt.Sprintf("%s and %s diverge at delivery %d", a.c.names[i], a.c.names[among[0]], k))
				break
			}
		}
		m.mu.Unlock()
	}
	return errs
}

// latencies returns the own-delivery latencies, over the given members,
// of multicasts due in [from, to).
func (a *app) latencies(among []int, from, to int64) []int64 {
	var out []int64
	for _, i := range among {
		m := a.mem[i]
		m.mu.Lock()
		for _, s := range m.lat {
			if s[0] >= from && s[0] < to {
				out = append(out, s[1])
			}
		}
		m.mu.Unlock()
	}
	return out
}

// undelivered counts the multicasts issued by members in from that some
// member in among never delivered.
func (a *app) undelivered(among, from []int) int {
	missing := map[uint64]bool{}
	for _, o := range from {
		n := a.sentCount(o)
		for _, i := range among {
			m := a.mem[i]
			m.mu.Lock()
			seen := m.seen[o]
			for seq := 1; seq <= n; seq++ {
				if seq >= len(seen) || !seen[seq] {
					missing[uint64(o)<<32|uint64(seq)] = true
				}
			}
			m.mu.Unlock()
		}
	}
	return len(missing)
}
