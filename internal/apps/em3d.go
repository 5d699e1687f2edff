package apps

import (
	"fmt"

	"repro/internal/params"
	"repro/internal/scenario"
	"repro/internal/sim"
)

const hEm3dUpdate = HApp + 30

// Em3d reproduces the paper's three-dimensional electromagnetic wave
// propagation kernel (Culler et al., Split-C): a bipartite graph of E
// and H nodes with directed edges; each graph node sends two integers
// (12-byte payload with the header's sense of "two integers") to its
// remote neighbours through a custom update protocol each
// half-iteration. Several updates are in flight at once — bursty,
// like spsolve (§4.2, Table 3: "1K nodes, degree 5, 10% remote,
// span 6, 10 iter").
type Em3d struct {
	GraphNodes int
	Degree     int
	PctRemote  int // percentage of edges crossing processors
	Span       int // neighbour processors within +/- span
	Iters      int
	Seed       uint64
}

// NewEm3d returns the benchmark with its default (scaled) input.
func NewEm3d() *Em3d {
	// Paper: 1K nodes, degree 5, 10% remote, span 6, 10 iterations.
	// Scaled: 512 nodes, 6 iterations; degree/remoteness/span kept.
	return &Em3d{GraphNodes: 512, Degree: 5, PctRemote: 10, Span: 6, Iters: 6, Seed: 2}
}

// Name implements App.
func (e *Em3d) Name() string { return "em3d" }

// KeyComm implements App.
func (e *Em3d) KeyComm() string { return "Fine-Grain Messages" }

// Input implements App.
func (e *Em3d) Input() string {
	return fmt.Sprintf("%d nodes, degree %d, %d%% remote, span %d, %d iter (paper: 1K nodes, 10 iter)",
		e.GraphNodes, e.Degree, e.PctRemote, e.Span, e.Iters)
}

// Run implements App.
func (e *Em3d) Run(cfg params.Config) Result {
	m := build(cfg)
	defer m.Close()
	P := cfg.Nodes
	rnd := NewRand(e.Seed)
	bar := NewBarrier(m)

	// remoteEdges[p] = list of destination processors for p's remote
	// edges (one 12-byte update each per half-iteration);
	// expectedPerHalf[p] = updates p receives per half-iteration.
	remoteEdges := make([][]int, P)
	localEdges := make([]int, P)
	expectedPerHalf := make([]int, P)
	perProc := e.GraphNodes / P
	for gn := 0; gn < perProc*P; gn++ {
		owner := gn % P
		for d := 0; d < e.Degree; d++ {
			if rnd.Intn(100) < e.PctRemote {
				off := 1 + rnd.Intn(e.Span)
				if rnd.Intn(2) == 0 {
					off = -off
				}
				dst := ((owner+off)%P + P) % P
				if dst == owner {
					localEdges[owner]++
					continue
				}
				remoteEdges[owner] = append(remoteEdges[owner], dst)
				expectedPerHalf[dst]++
			} else {
				localEdges[owner]++
			}
		}
	}

	got := make([]int, P)
	for id := 0; id < P; id++ {
		node := id
		m.Endpoint(id).Handle(hEm3dUpdate, func(d *scenario.Delivery) {
			got[node]++
			d.EP.Compute(4) // apply the two-integer update
		})
	}

	sc := scenario.New()
	for id := 0; id < P; id++ {
		me := id
		sc.At(id, func(ep *scenario.Endpoint) {
			expected := 0
			for it := 0; it < e.Iters; it++ {
				for half := 0; half < 2; half++ { // E then H
					// Local updates: cached computation.
					ep.Compute(sim.Time(localEdges[me] * 4))
					// Remote updates: one 12-byte message per edge.
					for _, dst := range remoteEdges[me] {
						ep.SendTo(dst, hEm3dUpdate, 12, nil)
					}
					expected += expectedPerHalf[me]
					ep.PollUntil(func() bool { return got[me] >= expected })
					bar.Wait(ep)
				}
			}
		})
	}
	tr := m.Run(sc)
	return collect(e.Name(), cfg, tr)
}
