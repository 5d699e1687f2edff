package scenario

import (
	"testing"

	"repro/internal/params"
)

// FuzzValidatedConfigRuns checks the Validate contract from the
// builder's side: any Config that Validate accepts builds a machine,
// runs a short ring of sends under a horizon, and closes without a
// panic. A panic on a simulated-process goroutine kills the whole
// process, so Validate is the only place a bad knob can be caught.
//
// Inputs: node count, NI, bus, topology, shard count, the five
// ablation bools (bits of flags), QueueBlocksOverride, tracing
// (bit 0 recorder, bit 1 sampler) and a drop probability in 1/65536.
func FuzzValidatedConfigRuns(f *testing.F) {
	const flat, torus = uint8(params.TopoFlat), uint8(params.TopoTorus)
	mem, io := uint8(params.MemoryBus), uint8(params.IOBus)
	// Overrides that crashed before Validate bounded them.
	for _, q := range []int16{-1, 1, 3} {
		f.Add(uint8(2), uint8(params.CNI16Q), mem, flat, uint8(0), uint8(0), q, uint8(0), uint16(0))
	}
	for _, q := range []int16{600, 4096} {
		f.Add(uint8(2), uint8(params.CNI512Q), mem, flat, uint8(0), uint8(0), q, uint8(0), uint16(0))
	}
	// Accepted shapes: the paper's machine, queue-size edges, an
	// ablated CQ on the I/O bus, a sharded torus, a lossy traced torus.
	f.Add(uint8(16), uint8(params.CNI16Qm), mem, flat, uint8(0), uint8(1), int16(0), uint8(0), uint16(0))
	f.Add(uint8(2), uint8(params.CNI16Q), mem, flat, uint8(0), uint8(0), int16(4), uint8(0), uint16(0))
	f.Add(uint8(2), uint8(params.CNI512Q), mem, flat, uint8(0), uint8(0), int16(512), uint8(0), uint16(0))
	f.Add(uint8(4), uint8(params.CNI512Q), io, flat, uint8(0), uint8(0x1e), int16(32), uint8(0), uint16(0))
	f.Add(uint8(24), uint8(params.CNI16Q), mem, torus, uint8(3), uint8(0), int16(0), uint8(1), uint16(0))
	f.Add(uint8(9), uint8(params.NI2w), mem, torus, uint8(0), uint8(0), int16(0), uint8(3), uint16(650))

	f.Fuzz(func(t *testing.T, nodes, ni, bus, topo, shards, flags uint8, qblocks int16, tracing uint8, drop uint16) {
		cfg := params.Config{
			Nodes:               int(nodes % 40),
			NI:                  params.NIKind(ni % 6),
			Bus:                 params.BusKind(bus % 3),
			Topology:            params.Topology(topo % 2),
			Shards:              int(shards % 5),
			Snarfing:            flags&1 != 0,
			UpdateProtocol:      flags&2 != 0,
			NoLazyPointers:      flags&4 != 0,
			NoValidBits:         flags&8 != 0,
			NoSenseReverse:      flags&16 != 0,
			QueueBlocksOverride: int(qblocks),
			Faults:              params.Faults{Seed: uint64(drop), DropProb: float64(drop) / 65536},
		}
		if tracing&1 != 0 {
			cfg.Trace = params.Trace{Enabled: true, RingSize: 256}
		}
		if tracing&2 != 0 {
			cfg.Trace.SampleEvery = params.TraceSampleDefault
		}
		if cfg.Validate() != nil {
			return
		}
		m, err := Build(cfg)
		if err != nil {
			t.Fatalf("Validate accepted %+v but Build failed: %v", cfg, err)
		}
		defer m.Close()
		sc := New()
		for id := 0; id < cfg.Nodes; id++ {
			dst := (id + 1) % cfg.Nodes
			sc.At(id, func(ep *Endpoint) {
				for i := 0; i < 4; i++ {
					ep.Send(dst, 64+60*i, i)
					ep.Drain()
				}
				ep.PollUntil(func() bool { return ep.Received() >= 4 })
			})
		}
		m.RunUntil(sc, 200_000)
	})
}
