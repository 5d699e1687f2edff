package apps

import (
	"fmt"

	"repro/internal/params"
	"repro/internal/scenario"
	"repro/internal/sim"
)

const hGaussPivot = HApp + 20

// Gauss reproduces the paper's message-passing Gaussian elimination
// (Chandra et al.): the key communication pattern is a one-to-all
// broadcast of the pivot row each iteration — two kilobytes for the
// paper's 512x512 matrix (§4.2, §5.2 "gauss performs a one-to-all
// broadcast of a 2KB row").
//
// Rows are dealt cyclically; the pivot owner broadcasts the row, then
// every processor eliminates its remaining rows.
type Gauss struct {
	N          int // matrix dimension
	RowBytes   int // broadcast payload per pivot row
	FlopCycles int // cycles per eliminated element
}

// NewGauss returns the benchmark with its default (scaled) input.
func NewGauss() *Gauss {
	// Paper: 512x512 with 2 KB rows. Scaled: 64x64 with the row
	// broadcast held at 2 KB so the communication pattern (bulk
	// one-to-all) is unchanged.
	return &Gauss{N: 64, RowBytes: 2048, FlopCycles: 2}
}

// Name implements App.
func (g *Gauss) Name() string { return "gauss" }

// KeyComm implements App.
func (g *Gauss) KeyComm() string { return "One-To-All Broadcast" }

// Input implements App.
func (g *Gauss) Input() string {
	return fmt.Sprintf("%dx%d matrix, %dB pivot rows (paper: 512x512, 2KB rows)", g.N, g.N, g.RowBytes)
}

// Run implements App.
func (g *Gauss) Run(cfg params.Config) Result {
	m := build(cfg)
	defer m.Close()
	P := cfg.Nodes
	bar := NewBarrier(m)

	// gotPivot[p] counts pivot rows received at processor p.
	gotPivot := make([]int, P)
	for id := 0; id < P; id++ {
		node := id
		m.Endpoint(id).Handle(hGaussPivot, func(d *scenario.Delivery) {
			gotPivot[node]++
		})
	}

	sc := scenario.New()
	for id := 0; id < P; id++ {
		me := id
		sc.At(id, func(ep *scenario.Endpoint) {
			expected := 0
			for k := 0; k < g.N; k++ {
				owner := k % P
				if owner == me {
					// Read the pivot row out of memory and broadcast.
					ep.Load(0, g.RowBytes)
					for d := 0; d < P; d++ {
						if d != me {
							ep.SendTo(d, hGaussPivot, g.RowBytes, k)
						}
					}
				} else {
					expected++
					ep.PollUntil(func() bool { return gotPivot[me] >= expected })
				}
				// Eliminate my rows below the pivot.
				myRows := 0
				for r := k + 1; r < g.N; r++ {
					if r%P == me {
						myRows++
					}
				}
				ep.Compute(sim.Time(myRows * (g.N - k) * g.FlopCycles))
			}
			bar.Wait(ep)
		})
	}
	tr := m.Run(sc)
	return collect(g.Name(), cfg, tr)
}
