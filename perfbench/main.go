// Command perfbench is the repository's benchmark: it runs one workload of
// FS-NewTOP or crash-tolerant NewTOP on the netsim fig8 profile, checks
// every delivery, and prints the workload's metrics, the end-to-end ones
// with -trace 0 and the per-layer ones with -trace 1. The last line of
// standard output is one JSON object. README.md defines every workload and
// metric; run.py builds and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// deadline bounds a whole run: a run that overstays it exits without a
// result rather than hang.
const deadline = 170 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name     = flag.String("workload", "", "workload name (see README.md)")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 10, "measured seconds")
		traced   = flag.Int("trace", 0, "1 = measure the per-layer metrics")
		traceDir = flag.String("trace-dir", ".bench_build/traces", "where the traced run writes its spans")
		source   = flag.String("source", "unknown", "source fingerprint, stamped on the output")
	)
	flag.Parse()
	var wl *workload
	var names []string
	for i := range workloads {
		names = append(names, workloads[i].name)
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload one of %s, -seconds >= 1, -trace 0|1\n", strings.Join(names, ", "))
		os.Exit(2)
	}
	time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", deadline)
		os.Exit(3)
	})

	r := &runState{wl: *wl, seed: *seed, traced: *traced == 1, plain: newAcc(), meas: newAcc(), meter: newMeter(spanCap)}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%d members=%d window: w=%d payload=%dB; cycles=%d payload=%dB rate=%.0f/s\n",
		wl.name, *seed, *seconds, *traced, members, wl.w, windowPayload, wl.cycles, cyclePayload, cycleRate)
	fmt.Printf("# host nproc=%d GOMAXPROCS=%d go=%s os=%s/%s source=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, *source)

	measure := time.Duration(*seconds) * time.Second
	for i := 0; i < setups; i++ {
		r.bareSetup()
	}
	// The failover cycles' traffic counts nowhere: the window is the
	// measurement.
	for i := 0; i < wl.cycles; i++ {
		r.cycle()
	}
	if err := r.window(measure); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}

	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	res.Correct = r.failed == 0 && len(r.errs) == 0
	if r.traced {
		r.perLayer(res.Metrics, *traceDir)
	} else {
		r.endToEnd(res.Metrics)
	}
	for _, e := range r.errs {
		fmt.Printf("# check failed: %s\n", e)
	}
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("# %-36s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// endToEnd fills the metrics a user of the system sees.
func (r *runState) endToEnd(ms map[string]metric) {
	x := r.plain
	ms["throughput_msgs_s"] = metric{median(x.thr), "msgs/s"}
	ms["latency_p50_ms"] = metric{slicePercentile(x.lat, 1, 50) / 1e6, "ms"}
	ms["latency_p90_ms"] = metric{slicePercentile(x.lat, 1, 90) / 1e6, "ms"}
	ms["cpu_us_per_msg"] = metric{median(x.cpu), "us"}
	ms["mem_peak_mb"] = metric{peakRSSMB(), "MB"}
	ms["setup_s"] = metric{median(r.setup), "s"}
	ms["reconfig_p50_ms"] = metric{slicePercentile(r.reconfig, cyclesPerSlice, 50) / 1e6, "ms"}
	ms["reconfig_p90_ms"] = metric{slicePercentile(r.reconfig, cyclesPerSlice, 90) / 1e6, "ms"}
	ms["outage_p50_ms"] = metric{slicePercentile(r.outage, cyclesPerSlice, 50) / 1e6, "ms"}
	ms["outage_p90_ms"] = metric{slicePercentile(r.outage, cyclesPerSlice, 90) / 1e6, "ms"}
	fmt.Printf("# slices throughput_msgs_s=%.0f\n# slices cpu_us_per_msg=%.0f\n", x.thr, x.cpu)
	fmt.Printf("# samples latency=%d reconfig=outage=%d (in %d cycles) setup=%d ordered_msgs=%.0f measured_s=%.3f\n",
		len(pooled(x.lat)), len(pooled(r.reconfig)), len(r.reconfig), len(r.setup), x.msgs, x.dur.Seconds())
}

// perLayer fills the per-layer metrics from the metered slices, and the
// tracing overhead from comparing them with the unmetered ones.
func (r *runState) perLayer(ms map[string]metric, traceDir string) {
	x := r.meas
	d, n := x.d, x.msgs
	per := func(k string) float64 { return d[k] / n }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	count := func(name string, v float64) { ms[name] = metric{v, "count"} }

	count("net.msgs_per_msg", per("m.sends"))
	count("net.substrate_sent_per_msg", per("net.sent"))
	ms["net.bytes_per_msg"] = metric{per("m.send_bytes"), "B"}
	ms["net.send_us_per_msg"] = metric{per("m.send_ns") / 1e3, "us"}
	count("net.frames_per_msg", per("net.frames"))
	for _, k := range countedKinds {
		count("net.kind."+strings.ReplaceAll(k, ".", "_")+"_per_msg", per("m.kind."+k))
	}
	spans := r.meter.spans.spans
	totals := resolve(spans)
	self := map[string]spanTotal{}
	for _, t := range totals {
		self[t.Name] = t
	}
	for _, role := range roles {
		ms["net.handler_us."+role] = metric{per("m.handler_ns."+role) / 1e3, "us"}
		t := self["net.handle."+role]
		ms["net.handler_self_share."+role] = metric{ratio(t.SelfS, t.TotalS), "ratio"}
	}

	hits, misses := d["sig.hits"], d["sig.misses"]
	count("sig.sign_per_msg", per("sig.signs"))
	count("sig.verify_per_msg", (hits+misses)/n)
	ms["sig.memo_hit_ratio"] = metric{ratio(hits, hits+misses), "ratio"}

	count("core.ordered_per_msg", per("core.ordered"))
	ms["core.duplicate_ratio"] = metric{ratio(d["core.duplicates"], d["core.ordered"]+d["core.duplicates"]), "ratio"}
	ms["core.matched_ratio"] = metric{ratio(d["core.matched"], d["core.outputs"]), "ratio"}
	count("core.queue_max", x.queueMax["core.queue"])
	count("core.relayed", d["core.relayed"])
	count("core.fail_signals", d["core.fail_signals"])

	ms["group.step_us_per_msg"] = metric{per("m.step_ns") / 1e3, "us"}
	count("group.steps_per_msg", per("m.steps"))
	count("group.outputs_per_step", ratio(d["m.outputs"], d["m.steps"]))
	count("group.backlog_max", x.queueMax["group.backlog"])
	count("group.views_per_fault", ratio(float64(r.views), float64(r.faults)))

	ms["fsnewtop.multicast_us_p50"] = metric{percentile(sorted(r.mcastNS), 50) / 1e3, "us"}
	count("fsnewtop.msgs_per_round", ratio(d["m.round_msgs"], d["m.rounds"]))
	count("orb.pool_depth_max", x.queueMax["orb.pool_depth"])

	ms["failover.detect_ms"] = metric{percentile(sorted(r.detect), 50) / 1e6, "ms"}
	ms["failover.viewchange_ms"] = metric{percentile(sorted(r.viewchg), 50) / 1e6, "ms"}

	count("go.allocs_per_msg", per("go.allocs"))
	ms["go.alloc_bytes_per_msg"] = metric{per("go.alloc_bytes"), "B"}
	count("go.gc_cycles", d["go.gc_cycles"])
	ms["go.gc_pause_ms"] = metric{d["go.gc_pause_s"] * 1e3, "ms"}
	ms["gen.lag_p99_ms"] = metric{percentile(sorted(r.lagNS), 99) / 1e6, "ms"}
	// The p99 is too unsteady on a shared host to gate (see README.md);
	// it is reported here, from the metered slices, without a bound.
	ms["latency.p99_ms"] = metric{percentile(pooled(x.lat), 99) / 1e6, "ms"}

	// Tracing overhead: the metered slices against the unmetered ones of
	// the same run, in percent (positive = tracing made it worse).
	p := r.plain
	pct := func(base, traced float64) float64 { return ratio(traced-base, base) * 100 }
	ms["trace.overhead_throughput_pct"] = metric{-pct(p.msgs/p.dur.Seconds(), n/x.dur.Seconds()), "%"}
	ms["trace.overhead_cpu_pct"] = metric{pct(p.d["cpu_ns"]/p.msgs, d["cpu_ns"]/n), "%"}
	ms["trace.overhead_latency_p50_pct"] = metric{pct(percentile(pooled(p.lat), 50), percentile(pooled(x.lat), 50)), "%"}
	count("trace.spans", float64(len(spans)))

	for _, t := range totals {
		fmt.Printf("# span %-22s n=%-6d total=%.0fus self=%.0fus\n", t.Name, t.Count, t.TotalS, t.SelfS)
	}
	if path, err := writeSpans(traceDir, r.wl.name, r.seed, spans, totals); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
	} else {
		fmt.Printf("# spans written to %s\n", path)
	}
}

// peakRSSMB is the process's peak resident memory.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
