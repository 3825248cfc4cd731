package main

import (
	"fmt"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"fsnewtop/internal/sig"
)

// workload is one set of inputs the benchmark runs. See README.md for why
// each exists.
type workload struct {
	name  string
	fs    bool
	batch bool
	// w is how many windowPayload-byte multicasts each member keeps
	// outstanding in the closed-loop window.
	w int
	// cycles is the number of failover cycles run before the window.
	cycles int
}

const (
	members       = 5
	windowPayload = 1024 // bytes
	// Every failover cycle carries the same light traffic, whatever the
	// workload: the paper's 3-byte messages at about a quarter of
	// fs-sat-1k's throughput, so reconfiguration is compared across
	// configurations under one load.
	cyclePayload = 3     // bytes
	cycleRate    = 200.0 // msgs/s over the whole group
)

var workloads = []workload{
	{name: "fs-sat-1k", fs: true, w: 32, cycles: 60},
	{name: "fs-batch-sat-1k", fs: true, batch: true, w: 64, cycles: 60},
	{name: "newtop-sat-1k", fs: false, w: 64, cycles: 3},
}

// Phase lengths.
const (
	warmup       = time.Second
	formTimeout  = 10 * time.Second
	drainTimeout = 30 * time.Second
	preFault     = 100 * time.Millisecond // traffic before the injection
	postFault    = 50 * time.Millisecond  // traffic after every survivor recovered
	// setups is how many bare set-ups (build, form, close) each run makes
	// on top of its cycles' and window's, so setup_s is a median of many.
	setups = 60
	// reconfigTimeout bounds a cycle's wait for reconfiguration: far above
	// FS's fail-signal path and crash NewTOP's ping suspicion (2 s default).
	reconfigTimeout = 10 * time.Second
	spanCap         = 10_000
)

// acc accumulates counter deltas over the measured slices of a run,
// plus the samples the percentiles come from.
type acc struct {
	d    map[string]float64 // counter deltas, keyed as in probe
	msgs float64            // ordered messages, mean over the members
	dur  time.Duration      // measured time
	// lat holds own-delivery latencies (ns), one list per one-second
	// slice of the window.
	lat [][]int64
	thr []float64 // per-slice throughput (msgs/s)
	cpu []float64 // per-slice CPU per message (µs)

	mu       sync.Mutex
	queueMax map[string]float64 // sampled gauges: maximum seen
}

func newAcc() *acc { return &acc{d: map[string]float64{}, queueMax: map[string]float64{}} }

func (x *acc) add(p0, p1 map[string]float64) {
	for k, v := range p1 {
		x.d[k] += v - p0[k]
	}
}

// slice records one measured second of the window, in which msgs
// messages were ordered in d, with CPU read by the probes p0 and p1.
func (x *acc) slice(p0, p1 map[string]float64, msgs float64, d time.Duration) {
	x.msgs += msgs
	x.thr = append(x.thr, msgs/d.Seconds())
	x.cpu = append(x.cpu, (p1["cpu_ns"]-p0["cpu_ns"])/1e3/msgs)
}

func (x *acc) gauge(k string, v float64) {
	x.mu.Lock()
	if v > x.queueMax[k] {
		x.queueMax[k] = v
	}
	x.mu.Unlock()
}

// runState is everything one benchmark run measured.
type runState struct {
	wl        workload
	seed      int64
	traced    bool
	setup     []float64 // seconds
	reconfig  [][]int64 // ns, per cycle: one per survivor
	outage    [][]int64
	detect    []int64 // FS, traced: injection to the survivor's GC stepping the fail-signal
	viewchg   []int64 // FS, traced: that step to the survivor's view install
	views     int     // views installed by survivors after an injection
	faults    int     // survivor-faults observed (survivors × cycles)
	mcastNS   []int64
	lagNS     []int64
	attempted int
	failed    int
	errs      []string

	plain, meas *acc // unmetered and metered slices (meas only when traced)
	meter       *meter
}

func (r *runState) fail(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// probe reads every cumulative counter the layers export, plus the
// process's CPU and the Go runtime's allocation and GC counters.
func probe(c *cluster, m *meter) map[string]float64 {
	p := map[string]float64{}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		p["cpu_ns"] = float64(ru.Utime.Nano() + ru.Stime.Nano())
	}
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	metrics.Read(samples)
	p["go.allocs"] = float64(samples[0].Value.Uint64())
	p["go.alloc_bytes"] = float64(samples[1].Value.Uint64())
	p["go.gc_cycles"] = float64(samples[2].Value.Uint64())
	if samples[3].Value.Kind() == metrics.KindFloat64Histogram {
		p["go.gc_pause_s"] = histSum(samples[3].Value.Float64Histogram())
	}
	st := c.net.Stats()
	p["net.sent"] = float64(st.Sent)
	p["net.bytes"] = float64(st.Bytes)
	p["net.frames"] = float64(c.net.FramesSent())
	p["sig.signs"] = float64(sig.WireEncodes())
	if c.fab != nil {
		cs := c.fab.SigCacheStats()
		p["sig.hits"] = float64(cs.Hits)
		p["sig.misses"] = float64(cs.Misses)
	}
	for _, r := range c.replicas() {
		s := r.Stats()
		p["core.ordered"] += float64(s.Ordered)
		p["core.duplicates"] += float64(s.Duplicates)
		p["core.outputs"] += float64(s.Outputs)
		p["core.matched"] += float64(s.Matched)
		p["core.relayed"] += float64(s.Relayed)
		p["core.fail_signals"] += float64(s.FailSignals)
	}
	if m != nil {
		m.read(p)
	}
	return p
}

// histSum estimates a runtime/metrics histogram's total from its bucket
// midpoints (the runtime exports pauses only as a histogram).
func histSum(h *metrics.Float64Histogram) float64 {
	var sum float64
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		switch {
		case lo < -1e300:
			lo = hi
		case hi > 1e300:
			hi = lo
		}
		sum += float64(n) * (lo + hi) / 2
	}
	return sum
}

// sampler records into x the maxima of the layers' queue gauges, every
// 2 ms while the meter is on, until stop closes. The function it returns
// waits for it to exit.
func sampler(c *cluster, x *acc, m *meter, stop <-chan struct{}) func() {
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			if !m.on.Load() {
				continue
			}
			for _, r := range c.replicas() {
				x.gauge("core.queue", float64(r.QueueLen()))
			}
			for i, n := range c.nt {
				if c.crashed[i].Load() {
					continue
				}
				x.gauge("group.backlog", float64(n.DriverBacklog()))
				x.gauge("orb.pool_depth", float64(n.ORB().PoolDepth()))
			}
		}
	}()
	return func() { <-done }
}

// meanDelivered returns the mean delivery count over the given members.
func meanDelivered(a *app, among []int) float64 {
	var sum float64
	for _, i := range among {
		sum += float64(a.delivered(i))
	}
	return sum / float64(len(among))
}

func indices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// form builds a cluster and waits until every member has installed the
// full view, returning the set-up time. In a traced run the cluster
// carries the meter's hooks, off until a metered slice turns them on.
func (r *runState) form(suspectAfter time.Duration, size, outstanding int) (*cluster, *app, time.Duration, error) {
	var m *meter
	if r.traced {
		m = r.meter
	}
	// Every set-up starts from the same state: a collected heap with its
	// free memory returned to the OS, so each one pays for faulting in its
	// memory as a fresh deployment would. Otherwise the collector's cycle
	// and the scavenger decide whether a set-up reuses resident memory:
	// with a bare runtime.GC() here, crash NewTOP's median set-up read
	// 1.6 to 2.3 ms over three runs, against 3.2 to 3.4 ms with this.
	debug.FreeOSMemory()
	start := time.Now()
	c, err := buildCluster(clusterConfig{
		members: members, fs: r.wl.fs, batch: r.wl.batch,
		seed: r.seed, suspectAfter: suspectAfter, meter: m,
	})
	if err != nil {
		return nil, nil, 0, err
	}
	a := newApp(c, size, r.seed, outstanding)
	if err := c.joinAll(); err != nil {
		a.close()
		c.close()
		return nil, nil, 0, err
	}
	if !waitFor(formTimeout, a.formed) {
		c.close()
		a.close()
		return nil, nil, 0, fmt.Errorf("group did not form within %v", formTimeout)
	}
	// Set-up ends at the last member's view event, not when the poll
	// above notices it: a poll's sleep can last a whole kernel tick.
	return c, a, a.origin.Sub(start) + time.Duration(a.formedAt()), nil
}

// bareSetup builds and forms one cluster and closes it again: a set-up
// sample and nothing else.
func (r *runState) bareSetup() {
	r.attempted++
	c, a, setup, err := r.form(0, cyclePayload, 0)
	if err != nil {
		r.failed++
		r.fail("set-up: %v", err)
		return
	}
	r.setup = append(r.setup, setup.Seconds())
	c.close()
	a.close()
}

// cycle runs one failover cycle: form a fresh group, run open-loop
// traffic, inject the fault into m00 once every member has installed the
// full view, and watch the survivors reconfigure and resume delivery.
func (r *runState) cycle() {
	// Crash NewTOP keeps its default ping suspicion here: it is the only
	// way that system can learn of a crash.
	c, a, setup, err := r.form(0, cyclePayload, 0)
	if err != nil {
		r.attempted++
		r.failed++
		r.fail("cycle set-up: %v", err)
		return
	}
	r.setup = append(r.setup, setup.Seconds())

	survivors := indices(members)[1:]
	var faulty atomic.Bool
	stopGen := make(chan struct{})
	genErr := make(chan error, 1)
	go func() {
		genErr <- a.openLoop(cycleRate, func(i int) bool { return i != 0 || !faulty.Load() }, stopGen)
	}()

	time.Sleep(preFault)
	r.meter.forgetFailSignals()
	faulty.Store(true)
	a.injAt.Store(a.now())
	c.fail(0)
	r.attempted++ // the fault itself: it must lead to a reconfiguration
	recovered := waitFor(reconfigTimeout, func() bool {
		for _, i := range survivors {
			m := a.mem[i]
			m.mu.Lock()
			ok := m.reconfig > 0 && m.outage > 0
			m.mu.Unlock()
			if !ok {
				return false
			}
		}
		return true
	})
	if !recovered {
		r.failed++
		r.fail("cycle: %v after the injection, %s", reconfigTimeout, a.unrecovered(survivors))
	}
	time.Sleep(postFault)
	close(stopGen)
	if err := <-genErr; err != nil {
		r.fail("cycle generator: %v", err)
	}
	if !waitFor(drainTimeout, func() bool { return a.undelivered(survivors, survivors) == 0 }) {
		r.fail("cycle: survivors did not deliver every survivor's multicast within %v", drainTimeout)
	}
	inj := a.injAt.Load()

	// Checks: survivors agree on one delivery sequence of intact,
	// unduplicated payloads, every survivor multicast reached every
	// survivor, and each survivor's only post-injection view excludes m00.
	var sent int
	for _, i := range survivors {
		sent += a.sentCount(i)
	}
	r.attempted += sent
	errs := a.orderCheck(survivors)
	undelivered := a.undelivered(survivors, survivors)
	var reconfig, outage []int64
	for _, i := range survivors {
		m := a.mem[i]
		m.mu.Lock()
		if recovered {
			reconfig = append(reconfig, m.reconfig)
			outage = append(outage, m.outage)
		}
		r.faults++
		for _, v := range m.views {
			if v.at >= inj {
				r.views++
				if contains(v.members, c.names[0]) || len(v.members) != members-1 {
					errs = append(errs, fmt.Sprintf("%s installed view %v after the injection", c.names[i], v.members))
				}
			}
		}
		for _, src := range m.fails {
			if src != c.names[0] {
				errs = append(errs, fmt.Sprintf("%s got a fail-signal from correct member %s", c.names[i], src))
			}
		}
		if at, ok := r.meter.failSignalAt(c.names[i]); ok && recovered {
			detect := at.Sub(a.origin).Nanoseconds() - inj
			r.detect = append(r.detect, detect)
			r.viewchg = append(r.viewchg, m.reconfig-detect)
		}
		m.mu.Unlock()
	}
	if recovered {
		r.reconfig = append(r.reconfig, reconfig)
		r.outage = append(r.outage, outage)
	}
	r.mcastNS = append(r.mcastNS, a.mcast...)
	r.lagNS = append(r.lagNS, a.lag...)
	c.close()
	a.close()
	r.settle(errs, undelivered, sent)
}

// settle charges a cluster's check results: a violated check fails every
// multicast of that cluster; otherwise each undelivered one fails alone.
func (r *runState) settle(errs []string, undelivered, sent int) {
	if len(errs) > 0 {
		r.failed += sent
		for i, e := range errs {
			if i == 5 {
				r.fail("... and %d more violations", len(errs)-5)
				break
			}
			r.fail("%s", e)
		}
		return
	}
	r.failed += undelivered
}

// window runs the saturating closed loop on a fresh cluster for the
// given time. Crash NewTOP gets the paper's arrangement for failure-free
// runs: suspicion kept far away.
func (r *runState) window(seconds time.Duration) error {
	c, a, setup, err := r.form(time.Hour, windowPayload, r.wl.w)
	if err != nil {
		return err
	}
	r.setup = append(r.setup, setup.Seconds())
	all := indices(members)
	stopGen := make(chan struct{})
	genErr := make(chan error, 1)
	go func() { genErr <- a.closedLoop(r.wl.w, stopGen) }()
	time.Sleep(warmup)

	// The window is measured in slices of about a second, and each metric
	// is reported as its median slice, which a passing stall on a shared
	// host moves less than the mean. A traced run alternates unmetered and
	// metered slices, so drift over the window cancels out of the tracing
	// overhead.
	n := int(seconds / time.Second)
	if n < 2 && r.traced {
		n = 2
	} else if n < 1 {
		n = 1
	}
	stopSample := make(chan struct{})
	waitSample := func() {}
	if r.traced {
		waitSample = sampler(c, r.meas, r.meter, stopSample)
	}
	type slice struct {
		x        *acc
		from, to int64
	}
	var slices []slice // each measured slice, for its latencies
	for k := 0; k < n; k++ {
		metered := r.traced && k%2 == 1
		x := r.plain
		if metered {
			x = r.meas
		}
		r.meter.on.Store(metered)
		p0, m0, t0 := probe(c, r.meter), meanDelivered(a, all), a.now()
		time.Sleep(seconds / time.Duration(n))
		p1, m1, t1 := probe(c, r.meter), meanDelivered(a, all), a.now()
		r.meter.on.Store(false)
		x.add(p0, p1)
		x.slice(p0, p1, m1-m0, time.Duration(t1-t0))
		x.dur += time.Duration(t1 - t0)
		slices = append(slices, slice{x, t0, t1})
	}
	close(stopSample)
	waitSample()
	close(stopGen)
	if err := <-genErr; err != nil {
		r.fail("generator: %v", err)
	}
	if !waitFor(drainTimeout, func() bool { return a.undelivered(all, all) == 0 }) {
		r.fail("window: members did not deliver every multicast within %v", drainTimeout)
	}
	// Latencies are read once every multicast has been delivered, so the
	// last slice keeps its slowest ones.
	for _, sl := range slices {
		sl.x.lat = append(sl.x.lat, a.latencies(all, sl.from, sl.to))
	}

	// Checks: one delivery sequence of intact payloads at every member,
	// and no fault of any kind in a failure-free run.
	var sent int
	for _, i := range all {
		sent += a.sentCount(i)
	}
	r.attempted += sent
	errs := a.orderCheck(all)
	for _, i := range all {
		m := a.mem[i]
		m.mu.Lock()
		if len(m.views) != 1 {
			errs = append(errs, fmt.Sprintf("%s installed %d views in a failure-free run", c.names[i], len(m.views)))
		}
		if len(m.fails) > 0 {
			errs = append(errs, fmt.Sprintf("%s got %d fail-signals in a failure-free run", c.names[i], len(m.fails)))
		}
		m.mu.Unlock()
	}
	for _, rep := range c.replicas() {
		if n := rep.Stats().FailSignals; n > 0 {
			errs = append(errs, fmt.Sprintf("a replica emitted %d fail-signals in a failure-free run", n))
		}
	}
	r.mcastNS = append(r.mcastNS, a.mcast...)
	undelivered := a.undelivered(all, all)
	c.close()
	a.close()
	r.settle(errs, undelivered, sent)
	return nil
}

// percentile returns the p-th percentile (nearest rank) of sorted xs.
func percentile(xs []int64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	k := int(p/100*float64(len(xs))+0.5) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(xs) {
		k = len(xs) - 1
	}
	return float64(xs[k])
}

// cyclesPerSlice is how many consecutive failover cycles make one slice
// for the reconfiguration and outage percentiles: a cycle has 4 survivor
// samples of each.
const cyclesPerSlice = 5

// slicePercentile groups consecutive units (seconds of a window, or
// cycles) into slices of about per units, and returns the median over
// slices of each slice's p-th percentile: a burst of host noise moves one
// slice, not the result.
func slicePercentile(units [][]int64, per int, p float64) float64 {
	n := len(units) / per
	if n < 1 {
		n = 1
	}
	var vals []float64
	for k := 0; k < n; k++ {
		var xs []int64
		for _, u := range units[k*len(units)/n : (k+1)*len(units)/n] {
			xs = append(xs, u...)
		}
		vals = append(vals, percentile(sorted(xs), p))
	}
	return median(vals)
}

// pooled concatenates units.
func pooled(units [][]int64) []int64 {
	var out []int64
	for _, u := range units {
		out = append(out, u...)
	}
	return sorted(out)
}

func sorted(xs []int64) []int64 {
	out := append([]int64(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
