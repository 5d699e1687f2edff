package apps

import (
	"fmt"

	"repro/internal/params"
	"repro/internal/scenario"
	"repro/internal/sim"
)

const hMoldynChunk = HApp + 40

// Moldyn reproduces the paper's molecular dynamics application (the
// CHARMM-like non-bonded force calculation): the dominant
// communication is a custom bulk reduction protocol (Mukherjee et
// al., PPOPP'95) that accounts for roughly 40% of execution with
// NI2w. One execution of the reduction iterates as many times as
// there are processors; in each iteration a processor sends 1.5 KB to
// the same neighbouring processor (§4.2, §5).
type Moldyn struct {
	Particles   int
	Iters       int // timesteps
	ChunkBytes  int // reduction transfer per ring step
	ForceCycles int // compute cycles per particle per timestep
}

// NewMoldyn returns the benchmark with its default (scaled) input.
func NewMoldyn() *Moldyn {
	// Paper: 2048 particles, 30 iterations, 1.5 KB reduction chunks.
	// Scaled: 2048 particles, 4 iterations; chunk size kept at 1.5 KB.
	return &Moldyn{Particles: 2048, Iters: 4, ChunkBytes: 1536, ForceCycles: 12}
}

// Name implements App.
func (md *Moldyn) Name() string { return "moldyn" }

// KeyComm implements App.
func (md *Moldyn) KeyComm() string { return "Bulk Reduction" }

// Input implements App.
func (md *Moldyn) Input() string {
	return fmt.Sprintf("%d particles, %d iter, %dB chunks (paper: 2048 particles, 30 iter)",
		md.Particles, md.Iters, md.ChunkBytes)
}

// Run implements App.
func (md *Moldyn) Run(cfg params.Config) Result {
	m := build(cfg)
	defer m.Close()
	P := cfg.Nodes
	bar := NewBarrier(m)

	got := make([]int, P)
	for id := 0; id < P; id++ {
		node := id
		m.Endpoint(id).Handle(hMoldynChunk, func(d *scenario.Delivery) {
			got[node]++
			// Fold the received partial forces into the local array.
			d.EP.Store(0, d.Size)
		})
	}

	sc := scenario.New()
	for id := 0; id < P; id++ {
		me := id
		sc.At(id, func(ep *scenario.Endpoint) {
			right := (me + 1) % P
			expected := 0
			for it := 0; it < md.Iters; it++ {
				// Force computation phase.
				ep.Compute(sim.Time(md.Particles / P * md.ForceCycles))
				// Bulk reduction: P ring steps, 1.5 KB to the same
				// neighbour each step; reception overlaps sending.
				for step := 0; step < P; step++ {
					ep.Load(0, md.ChunkBytes)
					ep.SendTo(right, hMoldynChunk, md.ChunkBytes, nil)
					expected++
					ep.PollUntil(func() bool { return got[me] >= expected })
				}
				bar.Wait(ep)
			}
		})
	}
	tr := m.Run(sc)
	return collect(md.Name(), cfg, tr)
}
