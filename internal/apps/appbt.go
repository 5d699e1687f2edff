package apps

import (
	"fmt"

	"repro/internal/params"
	"repro/internal/scenario"
	"repro/internal/sim"
)

const (
	hAppbtReq = HApp + 50
	hAppbtRep = HApp + 51
)

// Appbt reproduces the paper's parallel 3D computational fluid
// dynamics application from the NAS suite (Burger & Mehta's
// shared-memory port): a cube of cells divided into subcubes, one per
// processor, communicating across subcube boundaries through
// Tempest's default invalidation-based shared-memory protocol — i.e.
// request/response pairs moving moderately large 128-byte blocks
// (§4.2, §5.2). The paper notes appbt exhibits a hot spot: one
// processor receives twice as many messages as the others.
type Appbt struct {
	CubeDim    int // cells per edge of the whole cube
	Iters      int
	BlockBytes int // shared-memory block size (paper: 128)
	Seed       uint64
}

// NewAppbt returns the benchmark with its default (scaled) input.
func NewAppbt() *Appbt {
	// Paper: 24x24x24 cube, 4 iterations, 128-byte blocks.
	// Scaled: 12x12x12, 4 iterations.
	return &Appbt{CubeDim: 12, Iters: 4, BlockBytes: 128, Seed: 3}
}

// Name implements App.
func (a *Appbt) Name() string { return "appbt" }

// KeyComm implements App.
func (a *Appbt) KeyComm() string { return "Near neighbor" }

// Input implements App.
func (a *Appbt) Input() string {
	return fmt.Sprintf("%dx%dx%d cube, %d iter, %dB blocks (paper: 24x24x24)",
		a.CubeDim, a.CubeDim, a.CubeDim, a.Iters, a.BlockBytes)
}

// Run implements App.
func (a *Appbt) Run(cfg params.Config) Result {
	m := build(cfg)
	defer m.Close()
	P := cfg.Nodes
	bar := NewBarrier(m)

	// Arrange processors in a ring of subcubes: each exchanges a
	// face's worth of 128-byte blocks with both neighbours per
	// iteration via request/response. Face size scales with the cube
	// cross-section split across processors.
	faceCells := a.CubeDim * a.CubeDim / 2
	blocksPerFace := faceCells * 8 / a.BlockBytes
	if blocksPerFace < 1 {
		blocksPerFace = 1
	}

	replies := make([]int, P)
	for id := 0; id < P; id++ {
		node := id
		ep := m.Endpoint(id)
		ep.Handle(hAppbtReq, func(d *scenario.Delivery) {
			// Shared-memory protocol: read the block and respond.
			d.EP.Load(0, a.BlockBytes)
			d.EP.SendTo(d.Src, hAppbtRep, a.BlockBytes, nil)
		})
		ep.Handle(hAppbtRep, func(d *scenario.Delivery) {
			replies[node]++
			d.EP.Store(0x8000, a.BlockBytes)
		})
	}

	sc := scenario.New()
	for id := 0; id < P; id++ {
		me := id
		sc.At(id, func(ep *scenario.Endpoint) {
			// Hot spot (§5.2): everyone fetches boundary state from
			// node 0 as well as from ring neighbours, so node 0 sees
			// roughly double traffic.
			peers := []int{(me + 1) % P, (me - 1 + P) % P}
			if me != 0 {
				peers = append(peers, 0)
			}
			expected := 0
			for it := 0; it < a.Iters; it++ {
				for _, peer := range peers {
					share := blocksPerFace
					if peer == 0 && me != 0 {
						share = blocksPerFace / (P - 1)
						if share < 1 {
							share = 1
						}
					}
					for b := 0; b < share; b++ {
						ep.SendTo(peer, hAppbtReq, 16, nil)
						expected++
						// Keep a couple of requests in flight.
						ep.PollUntil(func() bool { return replies[me] >= expected-2 })
					}
				}
				ep.PollUntil(func() bool { return replies[me] >= expected })
				// Relaxation compute on the subcube interior.
				ep.Compute(sim.Time(a.CubeDim * a.CubeDim * a.CubeDim / P * 6))
				bar.Wait(ep)
			}
		})
	}
	tr := m.Run(sc)
	return collect(a.Name(), cfg, tr)
}
