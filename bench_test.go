package cni

// One benchmark per table/figure of the paper's evaluation (§5), plus
// the DESIGN.md ablations. Each benchmark iteration regenerates the
// full experiment on the simulator; run with -v to see the rendered
// paper-style tables. The headline scalar of each experiment is
// attached via b.ReportMetric so `go test -bench=.` output records it.

import (
	"strconv"
	"testing"
)

// runExperiment executes the named experiment once per iteration and
// logs the rendered table.
func runExperiment(b *testing.B, name string, apps []string) *Table {
	b.Helper()
	var tb *Table
	for i := 0; i < b.N; i++ {
		var err error
		tb, _, err = ExperimentData(name, RunOptions{Apps: apps})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("\n%s", tb.String())
	return tb
}

func cellF(b *testing.B, tb *Table, row, col int) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(tb.Rows[row][col], 64)
	if err != nil {
		b.Fatalf("cell %d,%d: %v", row, col, err)
	}
	return v
}

// BenchmarkTable1Taxonomy regenerates Table 1.
func BenchmarkTable1Taxonomy(b *testing.B) { runExperiment(b, "table1", nil) }

// BenchmarkTable2BusOccupancy regenerates Table 2 (the timing model).
func BenchmarkTable2BusOccupancy(b *testing.B) { runExperiment(b, "table2", nil) }

// BenchmarkTable3Macrobenchmarks regenerates Table 3.
func BenchmarkTable3Macrobenchmarks(b *testing.B) { runExperiment(b, "table3", nil) }

// BenchmarkTable4Comparison regenerates Table 4.
func BenchmarkTable4Comparison(b *testing.B) { runExperiment(b, "table4", nil) }

// BenchmarkFig6MemoryBus regenerates Fig 6a: round-trip latency on the
// memory bus. Metric: best-CNI improvement over NI2w at 64 bytes (the
// paper reports 37%).
func BenchmarkFig6MemoryBus(b *testing.B) {
	tb := runExperiment(b, "fig6-memory", nil)
	ni2w, best := cellF(b, tb, 3, 1), cellF(b, tb, 3, 4)
	b.ReportMetric(100*(ni2w-best)/ni2w, "%improvement@64B")
}

// BenchmarkFig6IOBus regenerates Fig 6b (paper: 74% at 64 bytes).
func BenchmarkFig6IOBus(b *testing.B) {
	tb := runExperiment(b, "fig6-io", nil)
	ni2w, best := cellF(b, tb, 3, 1), cellF(b, tb, 3, 4)
	b.ReportMetric(100*(ni2w-best)/ni2w, "%improvement@64B")
}

// BenchmarkFig6AlternateBuses regenerates Fig 6c. Metric: CNI16Qm@mem
// latency as a multiple of NI2w@cache at 64 bytes (paper: 1.43x).
func BenchmarkFig6AlternateBuses(b *testing.B) {
	tb := runExperiment(b, "fig6-alt", nil)
	b.ReportMetric(cellF(b, tb, 3, 2)/cellF(b, tb, 3, 1), "x-vs-cachebus@64B")
}

// BenchmarkFig7MemoryBus regenerates Fig 7a: bandwidth relative to the
// local-queue bound. Metric: best CNI at 4 KB (paper: ~0.73).
func BenchmarkFig7MemoryBus(b *testing.B) {
	tb := runExperiment(b, "fig7-memory", nil)
	b.ReportMetric(cellF(b, tb, 3, 4), "rel-bw@4KB")
}

// BenchmarkFig7IOBus regenerates Fig 7b.
func BenchmarkFig7IOBus(b *testing.B) {
	tb := runExperiment(b, "fig7-io", nil)
	b.ReportMetric(cellF(b, tb, 3, 4), "rel-bw@4KB")
}

// BenchmarkFig7AlternateBuses regenerates Fig 7c.
func BenchmarkFig7AlternateBuses(b *testing.B) {
	tb := runExperiment(b, "fig7-alt", nil)
	b.ReportMetric(cellF(b, tb, 3, 2), "Qm-rel-bw@4KB")
}

// BenchmarkFig8MemoryBus regenerates Fig 8a: all five macrobenchmarks
// on all five NIs. Metric: mean CNI16Qm speedup (paper: 1.17-1.53).
func BenchmarkFig8MemoryBus(b *testing.B) {
	tb := runExperiment(b, "fig8-memory", nil)
	sum := 0.0
	for r := range tb.Rows {
		sum += cellF(b, tb, r, 5)
	}
	b.ReportMetric(sum/float64(len(tb.Rows)), "mean-Qm-speedup")
}

// BenchmarkFig8IOBus regenerates Fig 8b (paper: CNI512Q 1.30-1.88).
func BenchmarkFig8IOBus(b *testing.B) {
	tb := runExperiment(b, "fig8-io", nil)
	sum := 0.0
	for r := range tb.Rows {
		sum += cellF(b, tb, r, 4)
	}
	b.ReportMetric(sum/float64(len(tb.Rows)), "mean-512Q-speedup")
}

// BenchmarkFig8AlternateBuses regenerates Fig 8c.
func BenchmarkFig8AlternateBuses(b *testing.B) {
	tb := runExperiment(b, "fig8-alt", nil)
	sum := 0.0
	for r := range tb.Rows {
		sum += cellF(b, tb, r, 2) / cellF(b, tb, r, 1)
	}
	b.ReportMetric(sum/float64(len(tb.Rows)), "Qm-vs-cachebus")
}

// BenchmarkBusOccupancy regenerates the §5.2 occupancy result.
// Metric: CNI16Qm memory-bus occupancy relative to NI2w averaged over
// the macrobenchmarks (paper: CQ CNIs reduce occupancy by up to 66%).
func BenchmarkBusOccupancy(b *testing.B) {
	tb := runExperiment(b, "occupancy", nil)
	b.ReportMetric(cellF(b, tb, len(tb.Rows)-1, 5), "Qm-rel-occupancy")
}

// BenchmarkAblationCQ measures the three CQ optimisations (DESIGN.md
// A1). Metric: RTT penalty of disabling lazy pointers.
func BenchmarkAblationCQ(b *testing.B) {
	tb := runExperiment(b, "ablation", nil)
	b.ReportMetric(cellF(b, tb, 1, 1)/cellF(b, tb, 0, 1), "no-lazy-RTT-x")
}

// BenchmarkSweepQueueSize sweeps the exposed queue size (A2).
func BenchmarkSweepQueueSize(b *testing.B) {
	tb := runExperiment(b, "sweep", nil)
	b.ReportMetric(cellF(b, tb, len(tb.Rows)-1, 2), "BW@512blk")
}

// BenchmarkDMAComparison regenerates the CNI-vs-DMA extension table
// (the comparison the paper lists as its open weakness). Metric: DMA
// round trip as a multiple of the CNI's at 16 bytes (fine grain).
func BenchmarkDMAComparison(b *testing.B) {
	tb := runExperiment(b, "dma", nil)
	b.ReportMetric(cellF(b, tb, 0, 3)/cellF(b, tb, 0, 2), "DMA-vs-CNI-RTT@16B")
}

// BenchmarkGoroutineCQ measures the pure-Go cachable queue itself
// (the paper's mechanism as a host-machine data structure).
func BenchmarkGoroutineCQ(b *testing.B) {
	q := NewQueue[int](1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.TryEnqueue(i)
		q.TryDequeue()
	}
}

// benchLoadsweepPoint runs one loadsweep load point — the same
// machine, workload, and warm/measure windows as a sweep rung at the
// torus knee — and reports simulator throughput as delivered user
// messages per wall-clock second. The simulated work is fixed, so any
// host-side speedup of the simulator shows up linearly in the metric.
func benchLoadsweepPoint(b *testing.B, topo Topology) {
	b.Helper()
	wl := DefaultWorkload()
	wl.OfferedMBps = LoadsweepBenchPerNodeMBps
	cfg := Config{Nodes: LoadsweepBenchNodes, NI: CNI512Q, Bus: MemoryBus,
		Topology: topo, Workload: &wl}
	var delivered uint64
	for i := 0; i < b.N; i++ {
		rep := MeasureLoad(cfg, LoadsweepBenchWarm, LoadsweepBenchMeasure)
		delivered = rep.Delivered
	}
	b.ReportMetric(float64(delivered)*float64(b.N)/b.Elapsed().Seconds(), "msgs/sec")
}

// BenchmarkTorusLoadsweep is the heaviest-path benchmark: a 16-node
// CNI512Q torus loadsweep point at the saturation knee. The benchjson
// torus_loadsweep_msgs_per_sec canary runs exactly this workload.
func BenchmarkTorusLoadsweep(b *testing.B) { benchLoadsweepPoint(b, TopoTorus) }

// BenchmarkFlatLoadsweep is the flat-fabric twin of
// BenchmarkTorusLoadsweep (same workload, contention-free fabric).
func BenchmarkFlatLoadsweep(b *testing.B) { benchLoadsweepPoint(b, TopoFlat) }

// benchShard4kPoint runs the Shard4kBench overload point at the given
// shard count (0 = legacy serial engine) and reports run-phase
// seconds per run (machine construction excluded — the O(n²) tables
// dominate setup at 4096 nodes and are identical across shard counts).
func benchShard4kPoint(b *testing.B, shards int) {
	b.Helper()
	wl := DefaultWorkload()
	wl.OfferedMBps = Shard4kBenchPerNodeMBps
	wl.ZipfS = 0
	cfg := Config{Nodes: Shard4kBenchNodes, NI: CNI16Q, Bus: MemoryBus,
		Topology: TopoTorus, Shards: shards, Workload: &wl}
	var run float64
	for i := 0; i < b.N; i++ {
		_, secs := MeasureLoadTimed(cfg, Shard4kBenchWarm, Shard4kBenchMeasure)
		run += secs
	}
	b.ReportMetric(run/float64(b.N), "run-sec/op")
}

// BenchmarkShard4kNodes is the sharded-engine scale benchmark: the
// 4096-node uniform-overload torus point at Shard4kBenchShards. The
// benchjson shard_4k_msgs_per_sec canary runs exactly this
// workload, and its --check gate compares it against the serial twin
// below.
func BenchmarkShard4kNodes(b *testing.B) { benchShard4kPoint(b, Shard4kBenchShards) }

// BenchmarkShard4kNodesSerial is the legacy serial engine on the same
// point — the denominator of the canary's speedup gate.
func BenchmarkShard4kNodesSerial(b *testing.B) { benchShard4kPoint(b, 0) }
