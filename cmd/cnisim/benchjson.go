package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	cni "repro"
	"repro/internal/harness"
	"repro/internal/sim"
)

// benchReport is the machine-readable performance snapshot written by
// `cnisim benchjson`. Fields with _cycles/_mbps suffixes are simulated
// results (they must not drift without a model change); _per_sec and
// _ms fields are host-performance numbers that track the perf
// trajectory of the simulator itself.
type benchReport struct {
	Timestamp  string `json:"timestamp"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`

	// Engine substrate.
	EngineEventsPerSec   float64 `json:"engine_events_per_sec"`
	EngineAllocsPerEvent float64 `json:"engine_allocs_per_event"`

	// Heaviest-path simulator throughput: one torus loadsweep point at
	// the saturation knee (the BenchmarkTorusLoadsweep workload),
	// reported as delivered user messages per wall-clock second. The
	// delivered count is simulated and exact — --check diffs it — while
	// the per-second rate is host perf (--check only requires the
	// committed snapshot to carry one, so the metric cannot silently
	// vanish).
	TorusLoadsweepMsgsPerSec    float64 `json:"torus_loadsweep_msgs_per_sec"`
	TorusLoadsweepDeliveredMsgs uint64  `json:"torus_loadsweep_delivered_msgs"`

	// Simulated headline results (determinism canaries).
	RTT64BCNI512QCycles uint64  `json:"rtt_64B_cni512q_cycles"`
	BW4KBCNI512QMBps    float64 `json:"bw_4096B_cni512q_mbps"`
	// TorusProbeRTTCycles pins the congestion model: probe RTT under
	// heavy hotspot load on the 16-node torus.
	TorusProbeRTTCycles uint64 `json:"torus_hotspot_rtt_64B_cni512q_cycles"`
	// The loadsweep canaries pin the workload/telemetry subsystem:
	// CNI512Q's saturation offered load (knee) for the Zipf-hotspot
	// workload per fabric. The torus value must sit strictly below
	// the flat one — converging hotspot flows queue on shared links —
	// and --check enforces the relation as well as the exact values.
	LoadsweepFlatKneeMBps  float64 `json:"loadsweep_flat_knee_cni512q_mbps"`
	LoadsweepTorusKneeMBps float64 `json:"loadsweep_torus_knee_cni512q_mbps"`

	// The datacenter-pack canaries pin the dcn subsystem. The rpc knee
	// is p99.9 at the top of the fan-out ladder (k=8) on the sweep's
	// headline cell (CNI512Q, flat, sweep windows and population): the
	// tail-at-scale number the rpc table leads with. The ring-allreduce
	// completions pin the collective scheduler per fabric; --check also
	// enforces flat < torus (the torus serialises the ring's neighbour
	// hops over shared links).
	RPCP999K8CNI512QUs       float64 `json:"rpc_p999_k8_cni512q_us"`
	RingAllreduceFlatCycles  uint64  `json:"ring_allreduce_flat_cni512q_cycles"`
	RingAllreduceTorusCycles uint64  `json:"ring_allreduce_torus_cni512q_cycles"`

	// The sharded-engine canaries: the Shard4kBench point (uniform
	// overload, 4096-node torus) on the sharded engine at 64 shards vs
	// the legacy serial engine. The delivered count is simulated and
	// exact — --check diffs it and additionally re-runs the point at 1
	// shard, which must deliver identically (shard-count invariance at
	// scale) — while the per-second rates and the speedup are host perf:
	// --check gates the speedup above shard4kMinSpeedup using best-of-3
	// run-phase timings. The rates count delivered user messages per
	// wall-clock second of run phase (construction excluded), the same
	// convention as torus_loadsweep_msgs_per_sec.
	Shard4kMsgsPerSec       float64 `json:"shard_4k_msgs_per_sec"`
	Shard4kSerialMsgsPerSec float64 `json:"shard_4k_serial_msgs_per_sec"`
	Shard4kDeliveredMsgs    uint64  `json:"shard_4k_delivered_msgs"`
	Shard4kSpeedup          float64 `json:"shard_4k_speedup"`

	// TraceOverheadPct is the wall-clock cost of full telemetry
	// (lifecycle recorder + sampler at the default period) on the same
	// torus loadsweep point, in percent over the untraced run: the
	// median over traceOverheadPairs untraced/traced pairs, with the
	// pairs' interquartile range beside it. The traced runs' delivered
	// count must equal the untraced canary — tracing is inert — and
	// --check gates the median under 15%.
	TraceOverheadPct    float64 `json:"trace_overhead_pct"`
	TraceOverheadIQRPct float64 `json:"trace_overhead_iqr_pct"`

	// Experiment-harness wall clock (host).
	Fig6MemoryWallMs float64 `json:"fig6_memory_wall_ms"`
	Fig7MemoryWallMs float64 `json:"fig7_memory_wall_ms"`
}

// engineThroughput measures steady-state schedule+dispatch events/sec
// and allocations per event on a fresh engine.
func engineThroughput() (eps, allocsPerEvent float64) {
	const events = 2_000_000
	const fanout = 64
	e := sim.NewEngine()
	n := 0
	fn := func() { n++ }
	// Warm population: one pending event per cycle 0..fanout-1. Each
	// measured iteration pops exactly the event at time i and pushes a
	// replacement at i+fanout, holding the heap at a constant
	// fanout-event depth (the same regime BenchmarkEngineEvents pins).
	for i := 0; i < fanout; i++ {
		e.Schedule(sim.Time(i), fn)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < events; i++ {
		e.Run(sim.Time(i))
		e.Schedule(fanout, fn)
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	e.RunAll()
	return float64(events) / wall.Seconds(),
		float64(after.Mallocs-before.Mallocs) / float64(events)
}

// torusLoadsweepThroughput runs the heaviest-path load point once
// under the given trace spec and returns host throughput plus the
// (deterministic) delivered count.
func torusLoadsweepThroughput(spec cni.TraceSpec) (eps float64, delivered uint64) {
	wl := cni.DefaultWorkload()
	wl.OfferedMBps = cni.LoadsweepBenchPerNodeMBps
	cfg := cni.Config{Nodes: cni.LoadsweepBenchNodes, NI: cni.CNI512Q,
		Bus: cni.MemoryBus, Topology: cni.TopoTorus, Workload: &wl, Trace: spec}
	start := time.Now()
	rep := cni.MeasureLoad(cfg, cni.LoadsweepBenchWarm, cni.LoadsweepBenchMeasure)
	wall := time.Since(start).Seconds()
	return float64(rep.Delivered) / wall, rep.Delivered
}

// shard4kMinSpeedup is the floor --check enforces on the sharded
// engine's run-phase speedup over the serial engine at 4096 nodes.
// The win comes from 64 shallow per-shard heaps replacing one
// machine-wide heap (the overloaded fabric keeps it deep) and from
// each epoch touching one 64-node row's state instead of striding the
// whole machine, so it holds on a single-core host too; extra cores
// only widen it.
const shard4kMinSpeedup = 1.5

// shard4kPoint runs the Shard4kBench workload point at the given shard
// count (0 = legacy serial engine) and returns delivered user messages
// per run-phase wall-clock second plus the (deterministic) delivered
// count and the run-phase seconds themselves.
func shard4kPoint(shards int) (eps float64, delivered uint64, secs float64) {
	wl := cni.DefaultWorkload()
	wl.OfferedMBps = cni.Shard4kBenchPerNodeMBps
	wl.ZipfS = 0 // uniform destinations; see harness.Shard4kBench*
	cfg := cni.Config{Nodes: cni.Shard4kBenchNodes, NI: cni.CNI16Q,
		Bus: cni.MemoryBus, Topology: cni.TopoTorus, Shards: shards, Workload: &wl}
	rep, secs := cni.MeasureLoadTimed(cfg, cni.Shard4kBenchWarm, cni.Shard4kBenchMeasure)
	return float64(rep.Delivered) / secs, rep.Delivered, secs
}

// shard4kSpeedup measures the sharded-vs-serial run-phase speedup at
// the Shard4kBench point, best of three runs each to damp host
// scheduling noise, and returns both rates plus the sharded run's
// delivered count.
func shard4kSpeedup() (eps, epsSerial, speedup float64, delivered uint64) {
	best := func(shards int) (eps, secs float64, delivered uint64) {
		secs = 1e18
		for i := 0; i < 3; i++ {
			e, d, s := shard4kPoint(shards)
			if s < secs {
				eps, secs = e, s
			}
			delivered = d
		}
		return eps, secs, delivered
	}
	epsSerial, serialSecs, _ := best(0)
	eps, shardSecs, delivered := best(cni.Shard4kBenchShards)
	return eps, epsSerial, serialSecs / shardSecs, delivered
}

// traceOverheadPairs is the number of untraced/traced pairs the
// trace-overhead measurement takes its median over. One run of the
// point takes tens of milliseconds, so single pairs swing by tens of
// percent with host noise; a best-of-3 per side flipped the 15% gate
// from one run of --check to the next.
const traceOverheadPairs = 11

// traceOverhead measures the telemetry tax: the torus loadsweep point
// with and without the full trace spec (recorder + default-period
// sampler) in alternating pairs, each pair's order swapped from the
// last so neither side always runs first. It returns the median and
// interquartile range of the per-pair overheads, plus the traced runs'
// delivered count so --check can pin trace inertness on the heaviest
// path.
func traceOverhead() (median, iqr float64, tracedDelivered uint64) {
	spec := cni.TraceSpec{Enabled: true, SampleEvery: cni.TraceSampleDefault}
	pcts := make([]float64, traceOverheadPairs)
	for i := range pcts {
		var off, on float64
		if i%2 == 0 {
			off, _ = torusLoadsweepThroughput(cni.TraceSpec{})
			on, tracedDelivered = torusLoadsweepThroughput(spec)
		} else {
			on, tracedDelivered = torusLoadsweepThroughput(spec)
			off, _ = torusLoadsweepThroughput(cni.TraceSpec{})
		}
		pcts[i] = (off/on - 1) * 100
	}
	sort.Float64s(pcts)
	n := len(pcts)
	return pcts[n/2], pcts[3*n/4] - pcts[n/4], tracedDelivered
}

func timeTable(f func() *harness.Table) float64 {
	start := time.Now()
	f()
	return float64(time.Since(start).Microseconds()) / 1000
}

// canaries computes the simulated determinism canaries (no host-perf
// fields), shared by the write and --check paths.
func canaries(r *benchReport) {
	cfg := cni.Config{Nodes: 2, NI: cni.CNI512Q, Bus: cni.MemoryBus}
	r.RTT64BCNI512QCycles = uint64(cni.RoundTrip(cfg, 64, 4))
	r.BW4KBCNI512QMBps = cni.Bandwidth(cfg, 4096, 200)
	torus := cni.Config{Nodes: 16, NI: cni.CNI512Q, Bus: cni.MemoryBus, Topology: cni.TopoTorus}
	r.TorusProbeRTTCycles = uint64(cni.ProbeRTT(torus, 64, 8, 1000))
	_, rows := cni.LoadSweep(cni.SweepOptions{NIs: []cni.NIKind{cni.CNI512Q}})
	r.LoadsweepFlatKneeMBps = rows[0].KneeOfferedMBps
	r.LoadsweepTorusKneeMBps = rows[1].KneeOfferedMBps
	r.TorusLoadsweepMsgsPerSec, r.TorusLoadsweepDeliveredMsgs = torusLoadsweepThroughput(cni.TraceSpec{})

	// Datacenter pack: the rpc sweep's headline tail point and the
	// ring-allreduce completion per fabric. Specs are constructed, not
	// user input, so a run error is a bug.
	rpcFlat := cni.Config{Nodes: 16, NI: cni.CNI512Q, Bus: cni.MemoryBus}
	rpcRep, err := cni.RunRPC(rpcFlat, cni.RPCSpecFor(cni.RPCOptions{}, 8, cni.RPCSweepThink),
		cni.RPCSweepWarm, cni.RPCSweepMeasure)
	if err != nil {
		panic(err)
	}
	r.RPCP999K8CNI512QUs = cni.Microseconds(rpcRep.Latency.Quantile(0.999))
	ringCycles := func(topo cni.Topology) uint64 {
		cfg := cni.Config{Nodes: 16, NI: cni.CNI512Q, Bus: cni.MemoryBus, Topology: topo}
		rep, err := cni.RunCollective(cfg, cni.DefaultCollectiveSpec())
		if err != nil {
			panic(err)
		}
		return uint64(rep.CompletionCycles)
	}
	r.RingAllreduceFlatCycles = ringCycles(cni.TopoFlat)
	r.RingAllreduceTorusCycles = ringCycles(cni.TopoTorus)
}

// checkCanaries regenerates the simulated canaries and diffs them
// against the committed snapshot, so timing-model drift fails CI
// instead of being silently overwritten.
func checkCanaries(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var committed benchReport
	if err := json.Unmarshal(data, &committed); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	var fresh benchReport
	canaries(&fresh)
	var drift []string
	if fresh.RTT64BCNI512QCycles != committed.RTT64BCNI512QCycles {
		drift = append(drift, fmt.Sprintf("rtt_64B_cni512q_cycles: committed %d, fresh %d",
			committed.RTT64BCNI512QCycles, fresh.RTT64BCNI512QCycles))
	}
	if fresh.BW4KBCNI512QMBps != committed.BW4KBCNI512QMBps {
		drift = append(drift, fmt.Sprintf("bw_4096B_cni512q_mbps: committed %v, fresh %v",
			committed.BW4KBCNI512QMBps, fresh.BW4KBCNI512QMBps))
	}
	if fresh.TorusProbeRTTCycles != committed.TorusProbeRTTCycles {
		drift = append(drift, fmt.Sprintf("torus_hotspot_rtt_64B_cni512q_cycles: committed %d, fresh %d",
			committed.TorusProbeRTTCycles, fresh.TorusProbeRTTCycles))
	}
	if fresh.LoadsweepFlatKneeMBps != committed.LoadsweepFlatKneeMBps {
		drift = append(drift, fmt.Sprintf("loadsweep_flat_knee_cni512q_mbps: committed %v, fresh %v",
			committed.LoadsweepFlatKneeMBps, fresh.LoadsweepFlatKneeMBps))
	}
	if fresh.LoadsweepTorusKneeMBps != committed.LoadsweepTorusKneeMBps {
		drift = append(drift, fmt.Sprintf("loadsweep_torus_knee_cni512q_mbps: committed %v, fresh %v",
			committed.LoadsweepTorusKneeMBps, fresh.LoadsweepTorusKneeMBps))
	}
	if fresh.TorusLoadsweepDeliveredMsgs != committed.TorusLoadsweepDeliveredMsgs {
		drift = append(drift, fmt.Sprintf("torus_loadsweep_delivered_msgs: committed %d, fresh %d",
			committed.TorusLoadsweepDeliveredMsgs, fresh.TorusLoadsweepDeliveredMsgs))
	}
	if fresh.RPCP999K8CNI512QUs != committed.RPCP999K8CNI512QUs {
		drift = append(drift, fmt.Sprintf("rpc_p999_k8_cni512q_us: committed %v, fresh %v",
			committed.RPCP999K8CNI512QUs, fresh.RPCP999K8CNI512QUs))
	}
	if fresh.RingAllreduceFlatCycles != committed.RingAllreduceFlatCycles {
		drift = append(drift, fmt.Sprintf("ring_allreduce_flat_cni512q_cycles: committed %d, fresh %d",
			committed.RingAllreduceFlatCycles, fresh.RingAllreduceFlatCycles))
	}
	if fresh.RingAllreduceTorusCycles != committed.RingAllreduceTorusCycles {
		drift = append(drift, fmt.Sprintf("ring_allreduce_torus_cni512q_cycles: committed %d, fresh %d",
			committed.RingAllreduceTorusCycles, fresh.RingAllreduceTorusCycles))
	}
	if fresh.RingAllreduceFlatCycles >= fresh.RingAllreduceTorusCycles {
		drift = append(drift, fmt.Sprintf("ring-allreduce inversion: flat %d cycles must complete strictly before torus %d (neighbour hops serialise on shared torus links)",
			fresh.RingAllreduceFlatCycles, fresh.RingAllreduceTorusCycles))
	}
	if committed.TorusLoadsweepMsgsPerSec <= 0 {
		drift = append(drift, "torus_loadsweep_msgs_per_sec: committed snapshot carries no throughput; regenerate with `cnisim benchjson`")
	}
	if committed.TraceOverheadPct == 0 {
		drift = append(drift, "trace_overhead_pct: committed snapshot carries no trace-overhead measurement; regenerate with `cnisim benchjson`")
	}
	if committed.Shard4kMsgsPerSec <= 0 || committed.Shard4kSpeedup == 0 {
		drift = append(drift, "shard_4k_msgs_per_sec: committed snapshot carries no sharded-engine measurement; regenerate with `cnisim benchjson`")
	}
	// The sharded-engine canaries: the 4096-node point's delivered
	// count is exact; one shard must reproduce sixteen (shard-count
	// invariance at scale, the serial-reference ordering); and sharding
	// must actually pay on the host.
	_, _, speedup4k, delivered4k := shard4kSpeedup()
	if delivered4k != committed.Shard4kDeliveredMsgs {
		drift = append(drift, fmt.Sprintf("shard_4k_delivered_msgs: committed %d, fresh %d",
			committed.Shard4kDeliveredMsgs, delivered4k))
	}
	if _, oneShard, _ := shard4kPoint(1); oneShard != delivered4k {
		drift = append(drift, fmt.Sprintf("shard-count variance: 1 shard delivered %d messages at 4096 nodes, %d shards delivered %d",
			oneShard, cni.Shard4kBenchShards, delivered4k))
	}
	if speedup4k <= shard4kMinSpeedup {
		drift = append(drift, fmt.Sprintf("shard_4k_speedup: fresh measurement %.2fx is under the %.1fx floor over the serial engine",
			speedup4k, shard4kMinSpeedup))
	}
	// The telemetry canary: tracing the heaviest path must not change
	// what the simulation computes and must stay cheap on the host.
	overheadPct, overheadIQR, tracedDelivered := traceOverhead()
	if tracedDelivered != committed.TorusLoadsweepDeliveredMsgs {
		drift = append(drift, fmt.Sprintf("traced torus loadsweep delivered %d messages, untraced canary is %d: tracing perturbed the simulation",
			tracedDelivered, committed.TorusLoadsweepDeliveredMsgs))
	}
	if overheadPct >= 15 {
		drift = append(drift, fmt.Sprintf("trace_overhead_pct: fresh median %.1f%% (IQR %.1f points over %d pairs) breaches the 15%% budget",
			overheadPct, overheadIQR, traceOverheadPairs))
	}
	if fresh.LoadsweepTorusKneeMBps >= fresh.LoadsweepFlatKneeMBps {
		drift = append(drift, fmt.Sprintf("loadsweep saturation inversion: torus knee %v MB/s must sit strictly below flat %v MB/s",
			fresh.LoadsweepTorusKneeMBps, fresh.LoadsweepFlatKneeMBps))
	}
	if len(drift) > 0 {
		return fmt.Errorf("simulated canaries drifted from %s (a timing-model change must update the snapshot deliberately):\n  %s",
			path, strings.Join(drift, "\n  "))
	}
	fmt.Printf("canaries match %s (trace overhead: median %.1f%%, IQR %.1f points over %d pairs)\n",
		path, overheadPct, overheadIQR, traceOverheadPairs)
	return nil
}

func runBenchJSON(args []string) error {
	fs := flag.NewFlagSet("benchjson", flag.ExitOnError)
	out := fs.String("out", "BENCH_sim.json", "output path")
	check := fs.Bool("check", false, "compare fresh canaries against the committed snapshot instead of writing")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *check {
		return checkCanaries(*out)
	}

	var r benchReport
	r.Timestamp = time.Now().UTC().Format(time.RFC3339)
	r.GoVersion = runtime.Version()
	r.GOMAXPROCS = runtime.GOMAXPROCS(0)
	r.EngineEventsPerSec, r.EngineAllocsPerEvent = engineThroughput()
	canaries(&r)
	r.TraceOverheadPct, r.TraceOverheadIQRPct, _ = traceOverhead()
	r.Shard4kMsgsPerSec, r.Shard4kSerialMsgsPerSec, r.Shard4kSpeedup,
		r.Shard4kDeliveredMsgs = shard4kSpeedup()

	r.Fig6MemoryWallMs = timeTable(func() *harness.Table { return harness.Fig6(cni.MemoryBus) })
	r.Fig7MemoryWallMs = timeTable(func() *harness.Table { return harness.Fig7(cni.MemoryBus) })

	data, err := json.MarshalIndent(&r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", *out)
	return nil
}
