package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	cni "repro"
	"repro/internal/dcn"
)

// defaultSeed is the seed whose simulated outputs are pinned exactly
// (pins.go). Other seeds are checked against invariants only.
const defaultSeed = 1

// workload is one benchmark input set. run drives the simulator
// through the public entry points, timing every call from outside,
// and records one operation per checked result and every machine it
// builds. probe then times standalone builds of those machines, after
// the measured window.
type workload struct {
	name string
	// seeded is false when the inputs are fixed, so the pins hold for
	// every seed.
	seeded bool
	run    func(r *rep)
	probe  func(r *rep) error
}

var workloads = []workload{
	{name: "paper16-flat", seeded: false, run: paper16Flat, probe: paper16Probe},
	{name: "open1k-torus", seeded: true, run: open1kTorus, probe: open1kProbe},
	{name: "rpc16-lossy", seeded: true, run: rpc16Lossy, probe: rpc16Probe},
}

func lookupWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// Standalone builds per configuration. A build of a 16-node machine
// takes a few milliseconds and swings with the collections it
// triggers, so its set-up time is a median of several.
const (
	paper16Builds = 9
	rpc16Builds   = 8
)

func paper16Configs() []cni.Config {
	return []cni.Config{
		{Nodes: 16, NI: cni.NI2w, Bus: cni.MemoryBus},
		{Nodes: 16, NI: cni.CNI16Qm, Bus: cni.MemoryBus},
	}
}

// The apps build their machines inside cni.RunBenchmark, so their
// set-up is timed on standalone builds of the same configurations.
func paper16Probe(r *rep) error {
	for _, cfg := range paper16Configs() {
		if err := r.probe(cfg, paper16Builds); err != nil {
			return err
		}
	}
	return nil
}

// paper16Flat runs the paper's five Table 3 macrobenchmarks on its
// 16-node flat-fabric machine, on the uncached-register baseline and
// on the coherent-queue design, each from empty caches.
func paper16Flat(r *rep) {
	apps := cni.Benchmarks()
	if r.small {
		apps = apps[:1]
	}
	for _, cfg := range paper16Configs() {
		r.config(cfg)
		for _, app := range apps {
			r.op(app+"/"+cfg.Name(), func(out outputs) error {
				end := r.spans.start("run "+app, r.root)
				t0 := time.Now()
				res, err := cni.RunBenchmark(app, cfg)
				d := time.Since(t0).Seconds()
				end()
				if err != nil {
					return err
				}
				r.uses = append(r.uses, machineUse{name: cfg.Name(), setup: true, inRun: true})
				r.rec.RunS += d
				r.rec.NodeCycles += float64(cfg.Nodes) * float64(res.Cycles)
				r.layers["apps.cycles"] += float64(res.Cycles)
				r.layers["bus.occupancy_cycles"] += float64(res.MemBusOccupancy)
				r.layers["network.msgs"] += float64(res.Messages)
				r.layers["network.bytes"] += float64(res.NetBytes)
				out["cycles"] = uint64(res.Cycles)
				out["bus_occupancy"] = uint64(res.MemBusOccupancy)
				out["net.msg"] = res.Messages
				if res.Cycles == 0 {
					return fmt.Errorf("%s ran zero cycles", app)
				}
				return nil
			})
		}
	}
}

// Open-loop window for open1k-torus: warm-up cycles, then the
// measured window the latency histogram covers.
const (
	open1kWarm    = 4_000
	open1kMeasure = 100_000
)

func open1kConfig(r *rep) (cfg cni.Config, warm, measure cni.Cycles) {
	nodes, shards, warm, measure := 1024, 32, cni.Cycles(open1kWarm), cni.Cycles(open1kMeasure)
	if r.small {
		nodes, shards, warm, measure = 64, 8, 500, 10_000
	}
	wl := cni.DefaultWorkload()
	wl.Arrival = cni.ArrivalPoisson
	wl.ZipfS = 0
	wl.OfferedMBps = 4
	wl.Seed = r.seed
	cfg = cni.Config{Nodes: nodes, NI: cni.CNI16Q, Bus: cni.MemoryBus, Topology: cni.TopoTorus, Shards: shards, Workload: &wl}
	return cfg, warm, measure
}

// open1kProbe builds the machine once more, in traced repetitions
// only, to isolate build time and allocation for the per-layer report.
// Set-up comes from the run itself.
func open1kProbe(r *rep) error {
	if !r.traced {
		return nil
	}
	cfg, _, _ := open1kConfig(r)
	return r.probe(cfg, 1)
}

// open1kTorus drives uniform open-loop Poisson traffic near the knee
// through a 1024-node torus on the sharded engine, one torus row per
// shard.
func open1kTorus(r *rep) {
	cfg, warm, measure := open1kConfig(r)
	r.config(cfg)
	r.op("load/"+cfg.Name(), func(out outputs) error {
		end := r.spans.start("load", r.root)
		t0 := time.Now()
		rep, run := cni.MeasureLoadTimed(cfg, warm, measure)
		d := time.Since(t0).Seconds()
		end()
		// MeasureLoadTimed times only the run phase; everything else
		// in the call (Build, generator set-up, the pre-run GC and
		// Close) is set-up.
		if r.traced {
			r.uses = append(r.uses, machineUse{name: cfg.Name()})
		}
		r.rec.SetupS += d - run
		r.rec.RunS += run
		r.rec.NodeCycles += float64(cfg.Nodes) * float64(warm+measure)
		r.layers["workload.sent"] += float64(rep.Sent)
		r.layers["workload.delivered"] += float64(rep.Delivered)
		r.layers["workload.p99_cycles"] += float64(rep.Latency.Quantile(0.99))
		r.layers["network.msgs"] += float64(rep.NetDelivery.Count())
		r.layers["network.delivery_p99_cycles"] += float64(rep.NetDelivery.Quantile(0.99))
		out["sent"] = rep.Sent
		out["delivered"] = rep.Delivered
		out["p99_cycles"] = uint64(rep.Latency.Quantile(0.99))
		if rep.Sent == 0 || rep.Delivered > rep.Sent {
			return fmt.Errorf("sent %d, delivered %d", rep.Sent, rep.Delivered)
		}
		return nil
	})
}

func rpc16Config(seed uint64) cni.Config {
	return cni.Config{
		Nodes: 16, NI: cni.CNI512Q, Bus: cni.MemoryBus, Topology: cni.TopoTorus,
		Faults: cni.Faults{Seed: seed, DropProb: 1e-3, Transport: true},
		Trace:  cni.TraceSpec{Enabled: true, SampleEvery: cni.TraceSampleDefault},
	}
}

func rpc16Probe(r *rep) error { return r.probe(rpc16Config(r.seed), rpc16Builds) }

// rpc16Lossy runs million-client fan-out-8 RPC over a 16-node torus
// on the serial engine with 1e-3 drops under the reliable transport,
// lifecycle tracing and the default-period sampler on. It is the one
// workload that builds its own machine, so every layer boundary —
// Build, the run, the trace export and Close — is timed directly.
func rpc16Lossy(r *rep) {
	warm, measure := cni.Cycles(cni.RPCSweepWarm), cni.Cycles(cni.RPCSweepMeasure)
	if r.small {
		warm, measure = 10_000, 100_000
	}
	cfg := rpc16Config(r.seed)
	spec := cni.RPCSpecFor(cni.RPCOptions{}, 8, cni.RPCSweepThink)
	spec.Seed = r.seed
	r.config(cfg)
	r.op("rpc/"+cfg.Name(), func(out outputs) error {
		runtime.GC()
		end := r.spans.start("build", r.root)
		t0 := time.Now()
		m, err := cni.Build(cfg)
		build := time.Since(t0).Seconds()
		end()
		if err != nil {
			return err
		}
		r.uses = append(r.uses, machineUse{name: cfg.Name(), build: build, setup: true})

		end = r.spans.start("run", r.root)
		t0 = time.Now()
		start := m.Clock()
		rep, err := dcn.RunRPCOn(m, spec, warm, measure)
		run := time.Since(t0).Seconds()
		end()
		if err != nil {
			m.Close()
			return err
		}
		r.rec.RunS += run
		r.rec.NodeCycles += float64(cfg.Nodes) * float64(m.Clock()-start)

		var cw countingWriter
		end = r.spans.start("export", r.root)
		t0 = time.Now()
		sum, err := m.WriteTrace(&cw)
		export := time.Since(t0).Seconds()
		end()
		if err != nil {
			m.Close()
			return err
		}
		if r.traced {
			readRPCCounters(r.layers, m, run)
		}
		end = r.spans.start("close", r.root)
		m.Close()
		end()

		r.layers["trace.export_s"] += export
		r.layers["trace.records"] += float64(sum.Records)
		r.layers["trace.overwritten"] += float64(sum.Overwritten)
		r.layers["trace.export_mb"] += float64(cw.n) / 1e6
		r.layers["dcn.calls"] += float64(rep.Issued)
		r.layers["dcn.completed"] += float64(rep.Completed)
		r.layers["dcn.p99_cycles"] += float64(rep.Latency.Quantile(0.99))
		out["issued"] = rep.Issued
		out["completed"] = rep.Completed
		out["retransmits"] = m.Counter("net.retransmits")
		out["p99_cycles"] = uint64(rep.Latency.Quantile(0.99))
		out["trace_records"] = uint64(sum.Records)
		if rep.Issued == 0 || rep.Completed > rep.Issued {
			return fmt.Errorf("issued %d, completed %d", rep.Issued, rep.Completed)
		}
		return nil
	})
}

// readRPCCounters copies the rpc16-lossy machine's simulated counters
// into the per-layer report.
func readRPCCounters(l map[string]float64, m *cni.Machine, run float64) {
	perNode := func(suffix string) float64 {
		var s uint64
		for id := 0; id < m.Nodes(); id++ {
			s += m.Counter(fmt.Sprintf("node%d.%s", id, suffix))
		}
		return float64(s)
	}
	events := m.EventsScheduled()
	recv, empty := perNode("ni.recv.msg"), perNode("ni.recv.poll.empty")
	l["sim.events"] += float64(events)
	if events > 0 {
		l["sim.host_ns_per_event"] += run * 1e9 / float64(events)
	}
	l["bus.occupancy_cycles"] += float64(m.BusOccupancy())
	l["cache.load_miss"] += perNode("cache.load.miss")
	l["nic.recv_msgs"] += recv
	l["nic.poll_empty"] += empty
	if recv+empty > 0 {
		l["nic.poll_useful_ratio"] += recv / (recv + empty)
	}
	l["network.msgs"] += float64(m.Counter("net.msg"))
	l["network.bytes"] += float64(m.Counter("net.bytes"))
	l["network.torus_hops"] += float64(m.Counter("net.torus.hop"))
	l["network.link_wait_cycles"] += float64(m.Counter("net.torus.link.wait"))
	l["network.window_stalls"] += float64(m.Counter("net.window.stall"))
	st := m.Stats()
	l["network.delivery_p99_cycles"] += float64(st.Histogram("net.delivery").Quantile(0.99))
	l["msg.recovery_p99_cycles"] += float64(st.Histogram("net.recovery").Quantile(0.99))
	l["fault.drops"] += float64(m.Counter("net.drops"))
	l["msg.retransmits"] += float64(m.Counter("net.retransmits"))
	l["msg.acks"] += float64(m.Counter("net.acks"))
}

// countingWriter discards what it is given and counts the bytes.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// median returns the median of xs (NaN for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
