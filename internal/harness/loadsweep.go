package harness

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/params"
	"repro/internal/workload"
)

// Load-sweep tuning. The ladder is geometric so one sweep spans the
// two decades between a polled NI's comfortable load and its
// collapse; rungs are identical across NIs and fabrics so rows are
// comparable.
const (
	// SweepNodes/SweepWarm/SweepMeasure are exported so a cnisim
	// --load point measures exactly the machine and windows a sweep
	// rung does.
	SweepNodes    = 16
	SweepWarm     = 20_000 // cycles before the measurement window
	SweepMeasure  = 80_000 // measurement window length
	sweepBaseMBps = 4.0    // per-node offered load on the first rung
	sweepGrowth   = 1.3
	sweepMaxRungs = 12
	// sweepKneeEff defines saturation: the knee is the last rung
	// whose goodput still tracked offered load to within this factor.
	sweepKneeEff = 0.85
	// closedMaxClients caps the closed-loop ladder (clients per node).
	closedMaxClients = 64
	// closedKneeGain: the closed-loop knee is the last doubling that
	// still grew goodput by this factor.
	closedKneeGain = 1.05
)

// LoadsweepBench* pin the "heaviest path" benchmark load point that
// BenchmarkTorusLoadsweep and the benchjson
// torus_loadsweep_msgs_per_sec canary share: the default sweep's
// machine at the CNI512Q torus saturation knee (the 7th ladder rung).
const (
	LoadsweepBenchNodes       = SweepNodes
	LoadsweepBenchWarm        = SweepWarm
	LoadsweepBenchMeasure     = SweepMeasure
	LoadsweepBenchPerNodeMBps = sweepBaseMBps * sweepGrowth * sweepGrowth *
		sweepGrowth * sweepGrowth * sweepGrowth * sweepGrowth
)

// sweepFracs are the fractions of the saturation offered load at
// which tail latency is reported.
var sweepFracs = [3]float64{0.3, 0.6, 0.9}

// SweepPoint is one measured load point.
type SweepPoint struct {
	// OfferedMBps is the aggregate offered load; for the closed loop
	// it is the measured (self-limited) goodput.
	OfferedMBps float64 `json:"offered_mbps"`
	// GoodputMBps is the aggregate delivered user payload.
	GoodputMBps float64 `json:"goodput_mbps"`
	// Clients is the per-node client count (closed loop only).
	Clients int `json:"clients,omitempty"`
	// Latency percentiles in microseconds (see Report.Latency for
	// the semantics per arrival kind).
	P50Us  float64 `json:"p50_us"`
	P90Us  float64 `json:"p90_us"`
	P99Us  float64 `json:"p99_us"`
	P999Us float64 `json:"p999_us"`
	// Sent/Delivered count user messages over the whole run.
	Sent      uint64 `json:"sent"`
	Delivered uint64 `json:"delivered"`
}

// SweepRow is one NI × topology sweep: the ladder to saturation plus
// tail-latency measurements at fractions of the saturation load.
type SweepRow struct {
	NI       string `json:"ni"`
	Topology string `json:"topology"`
	// SaturationMBps is the best goodput observed on the ladder.
	SaturationMBps float64 `json:"saturation_mbps"`
	// KneeOfferedMBps is the saturation offered load: the last rung
	// whose goodput tracked offered load (sweepKneeEff); AtFrac is
	// measured at sweepFracs of it.
	KneeOfferedMBps float64 `json:"knee_offered_mbps"`
	// KneeTracked is false when even the ladder's first rung failed
	// the tracking test, i.e. KneeOfferedMBps fell back to the base
	// rung and was never actually sustained.
	KneeTracked bool          `json:"knee_tracked"`
	Ladder      []SweepPoint  `json:"ladder"`
	AtFrac      [3]SweepPoint `json:"at_frac"`
}

// SweepOptions selects what to sweep. Empty NIs/Topos mean the five
// paper NIs plus DMA over both fabrics; a zero Seed keeps the
// default workload's.
type SweepOptions struct {
	Arrival params.ArrivalKind
	// ZipfS, when non-nil, overrides the destination skew (0 =
	// uniform); nil keeps params.DefaultWorkload's hotspot skew, so
	// the zero-value SweepOptions sweeps the default workload.
	ZipfS *float64
	Seed  uint64
	NIs   []params.NIKind
	Topos []params.Topology
	// Progress, when non-nil, is called once per measured load point
	// with the cell's "NI/topology" label and the point's aggregate
	// offered load in MB/s (the self-limited goodput for closed-loop
	// rungs). Cells fan out over worker goroutines, so the callback
	// must be goroutine-safe.
	Progress func(cell string, offeredMBps float64)
}

// notify reports one measured point to the Progress callback.
func (opt *SweepOptions) notify(cell string, offeredMBps float64) {
	if opt.Progress != nil {
		opt.Progress(cell, offeredMBps)
	}
}

// SweepWorkload builds the workload spec for one load point: the
// options' arrival/skew/seed overrides on top of the default
// workload, at the given per-node offered load (open loop) or client
// population (closed loop). cnisim --load uses it too, so a one-off
// point measures exactly the workload a sweep rung would.
func SweepWorkload(opt SweepOptions, perNodeMBps float64, clients int) *params.Workload {
	wl := params.DefaultWorkload()
	wl.Arrival = opt.Arrival
	if opt.ZipfS != nil {
		wl.ZipfS = *opt.ZipfS
	}
	if opt.Seed != 0 {
		wl.Seed = opt.Seed
	}
	wl.OfferedMBps = perNodeMBps
	wl.Clients = clients
	return &wl
}

// measure runs one load point and condenses the report.
func measure(cfg params.Config) SweepPoint {
	rep := workload.Run(cfg, SweepWarm, SweepMeasure)
	q := func(p float64) float64 {
		return machine.Microseconds(rep.Latency.Quantile(p))
	}
	clients := 0
	if cfg.Workload.Arrival == params.ArrivalClosed {
		clients = cfg.Workload.Clients
	}
	return SweepPoint{
		OfferedMBps: rep.OfferedMBps,
		GoodputMBps: rep.GoodputMBps,
		Clients:     clients,
		P50Us:       q(0.50),
		P90Us:       q(0.90),
		P99Us:       q(0.99),
		P999Us:      q(0.999),
		Sent:        rep.Sent,
		Delivered:   rep.Delivered,
	}
}

// sweepOne climbs the ladder for one NI × topology until goodput
// stops tracking offered load, then measures tail latency at
// sweepFracs of the knee.
func sweepOne(opt SweepOptions, ni params.NIKind, topo params.Topology) SweepRow {
	row := SweepRow{NI: ni.String(), Topology: topo.String()}
	cell := row.NI + "/" + row.Topology
	cfg := func(wl *params.Workload) params.Config {
		return params.Config{Nodes: SweepNodes, NI: ni, Bus: params.MemoryBus, Topology: topo, Workload: wl}
	}
	if opt.Arrival == params.ArrivalClosed {
		// Closed loop: double the per-node client count until goodput
		// stops growing; offered load self-limits, so the knee is the
		// smallest population that reaches the plateau.
		prev := 0.0
		kneeClients := 1
		for c := 1; c <= closedMaxClients; c *= 2 {
			pt := measure(cfg(SweepWorkload(opt, 0, c)))
			opt.notify(cell, pt.GoodputMBps)
			row.Ladder = append(row.Ladder, pt)
			if pt.GoodputMBps > row.SaturationMBps {
				row.SaturationMBps = pt.GoodputMBps
			}
			if c > 1 && pt.GoodputMBps < prev*closedKneeGain {
				break
			}
			prev = pt.GoodputMBps
			kneeClients = c
		}
		row.KneeOfferedMBps = row.SaturationMBps
		row.KneeTracked = true
		for i, f := range sweepFracs {
			c := int(f*float64(kneeClients) + 0.5)
			if c < 1 {
				c = 1
			}
			row.AtFrac[i] = measure(cfg(SweepWorkload(opt, 0, c)))
			opt.notify(cell, row.AtFrac[i].GoodputMBps)
		}
		return row
	}
	perNode := sweepBaseMBps
	knee := sweepBaseMBps
	for rung := 0; rung < sweepMaxRungs; rung++ {
		pt := measure(cfg(SweepWorkload(opt, perNode, 0)))
		opt.notify(cell, pt.OfferedMBps)
		row.Ladder = append(row.Ladder, pt)
		if pt.GoodputMBps > row.SaturationMBps {
			row.SaturationMBps = pt.GoodputMBps
		}
		if pt.GoodputMBps < sweepKneeEff*pt.OfferedMBps {
			break
		}
		row.KneeTracked = true
		knee = perNode
		perNode *= sweepGrowth
	}
	row.KneeOfferedMBps = knee * SweepNodes
	for i, f := range sweepFracs {
		row.AtFrac[i] = measure(cfg(SweepWorkload(opt, f*knee, 0)))
		opt.notify(cell, row.AtFrac[i].OfferedMBps)
	}
	return row
}

// SweepData renders a sweep's machine-readable Data: a summary grid
// with stable snake_case column names (the CSV export's schema) and
// the full per-NI ladders under Extra. The name is set here because
// cnisim's parameterised loadsweep path builds this Data without
// going through the registry (whose stamp would agree anyway).
func SweepData(t *Table, rows []SweepRow) *Data {
	d := &Data{
		Name:  "loadsweep",
		Title: t.Title,
		Header: []string{"ni", "topology", "saturation_mbps", "knee_offered_mbps",
			"p50_us_30", "p99_us_30", "p999_us_30",
			"p50_us_60", "p99_us_60", "p999_us_60",
			"p50_us_90", "p99_us_90", "p999_us_90"},
		Extra: rows,
	}
	for _, r := range rows {
		row := []string{r.NI, r.Topology,
			fmt.Sprintf("%.1f", r.SaturationMBps), fmt.Sprintf("%.1f", r.KneeOfferedMBps)}
		for _, pt := range r.AtFrac {
			row = append(row,
				fmt.Sprintf("%.1f", pt.P50Us),
				fmt.Sprintf("%.1f", pt.P99Us),
				fmt.Sprintf("%.1f", pt.P999Us))
		}
		d.Rows = append(d.Rows, row)
	}
	return d
}

// LoadSweep runs the load sweep for every requested NI × topology and
// renders the table; the rows carry the machine-readable results
// (JSON/CSV in cmd/cnisim). Each cell is an independent machine, so
// rows fan out over the host cores; output is byte-identical to a
// serial run.
func LoadSweep(opt SweepOptions) (*Table, []SweepRow) {
	nis := opt.NIs
	if len(nis) == 0 {
		nis = append(append([]params.NIKind{}, Fig8NIsMemory...), params.DMA)
	}
	topos := opt.Topos
	if len(topos) == 0 {
		topos = []params.Topology{params.TopoFlat, params.TopoTorus}
	}
	wl := SweepWorkload(opt, 0, 0)
	rows := runCells(len(nis)*len(topos), func(i int) SweepRow {
		return sweepOne(opt, nis[i/len(topos)], topos[i%len(topos)])
	})
	note := fmt.Sprintf("Offered load climbs a geometric ladder until goodput stops tracking it\n"+
		"(< %.0f%% delivered); sat is the best goodput, knee the saturation offered\n"+
		"load, and latency percentiles (end-to-end, coordinated-omission-free) are\n"+
		"measured at %.0f/%.0f/%.0f%% of the knee. Histogram quantile error <= 6.25%%.",
		100*sweepKneeEff, 100*sweepFracs[0], 100*sweepFracs[1], 100*sweepFracs[2])
	if opt.Arrival == params.ArrivalClosed {
		note = fmt.Sprintf("The per-node client population doubles until goodput stops growing (< %.0f%%\n"+
			"gain per doubling); sat = knee is the plateau goodput, and request/reply\n"+
			"latency percentiles are measured at %.0f/%.0f/%.0f%% of the knee's client\n"+
			"count. Histogram quantile error <= 6.25%%.",
			100*(closedKneeGain-1), 100*sweepFracs[0], 100*sweepFracs[1], 100*sweepFracs[2])
	}
	t := &Table{
		Title: fmt.Sprintf("Load sweep: %v arrivals, Zipf(s=%.2f) destinations (%d nodes, memory bus)",
			wl.Arrival, wl.ZipfS, SweepNodes),
		Note: note,
		Header: []string{"NI", "topo", "sat MB/s", "knee MB/s",
			"p50@30 (us)", "p99@30", "p99.9@30",
			"p50@60", "p99@60", "p99.9@60",
			"p50@90", "p99@90", "p99.9@90"},
	}
	for i, r := range rows {
		name := ""
		if i%len(topos) == 0 {
			name = r.NI
		}
		cells := []string{name, r.Topology,
			fmt.Sprintf("%.1f", r.SaturationMBps),
			fmt.Sprintf("%.1f", r.KneeOfferedMBps)}
		for _, pt := range r.AtFrac {
			cells = append(cells,
				fmt.Sprintf("%.1f", pt.P50Us),
				fmt.Sprintf("%.1f", pt.P99Us),
				fmt.Sprintf("%.1f", pt.P999Us))
		}
		t.Rows = append(t.Rows, cells)
	}
	return t, rows
}
