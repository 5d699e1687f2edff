package apps

import (
	"fmt"

	"repro/internal/params"
	"repro/internal/scenario"
)

const hSpsolveEdge = HApp + 10

// Spsolve reproduces the paper's very fine-grained iterative
// sparse-matrix solver (Chong et al.): active messages propagate down
// the edges of a directed acyclic graph, all computation happens in
// handlers at the DAG nodes, each message carries a 12-byte payload,
// and the per-message computation is a single double-word addition.
// Many messages can be in flight at once, producing bursty traffic
// (§4.2, Table 3: "Fine-Grain Messages, 3720 elements").
//
// Scaled input: Elements DAG nodes arranged in Levels levels with
// Degree random next-level successors each; elements are dealt
// round-robin so most edges cross processors.
type Spsolve struct {
	Elements int
	Levels   int
	Degree   int
	Seed     uint64
}

// NewSpsolve returns the benchmark with its default (scaled) input.
func NewSpsolve() *Spsolve {
	return &Spsolve{Elements: 1240, Levels: 20, Degree: 3, Seed: 1}
}

// Name implements App.
func (s *Spsolve) Name() string { return "spsolve" }

// KeyComm implements App.
func (s *Spsolve) KeyComm() string { return "Fine-Grain Messages" }

// Input implements App.
func (s *Spsolve) Input() string {
	return fmt.Sprintf("%d elements, %d levels, degree %d (paper: 3720 elements)",
		s.Elements, s.Levels, s.Degree)
}

// dagNode is one element of the sparse system.
type dagNode struct {
	owner     int // processor
	indegree  int
	remaining int
	succs     []int // global element ids
}

// Run implements App.
func (s *Spsolve) Run(cfg params.Config) Result { return collect(s.Name(), cfg, s.run(cfg)) }

// run executes the workload and returns the run's trace.
func (s *Spsolve) run(cfg params.Config) *scenario.Trace {
	m := build(cfg)
	defer m.Close()
	P := cfg.Nodes
	rnd := NewRand(s.Seed)

	perLevel := s.Elements / s.Levels
	nodes := make([]*dagNode, s.Elements)
	for i := range nodes {
		nodes[i] = &dagNode{owner: i % P}
	}
	for i := range nodes {
		l := i / perLevel
		if l+1 >= s.Levels {
			continue
		}
		for d := 0; d < s.Degree; d++ {
			t := (l+1)*perLevel + rnd.Intn(perLevel)
			if t < s.Elements {
				nodes[i].succs = append(nodes[i].succs, t)
				nodes[t].indegree++
			}
		}
	}
	// expected[p] = edge deliveries processor p must see (local +
	// remote); completion when every processor reaches its count.
	expected := make([]int, P)
	fired := make([]int, P)
	for i, nd := range nodes {
		nd.remaining = nd.indegree
		expected[i%P] += nd.indegree
	}

	// deliver consumes one incoming edge for element id; when the
	// element's dependencies are satisfied it computes and propagates.
	var deliver func(ep *scenario.Endpoint, id int)
	propagate := func(ep *scenario.Endpoint, nd *dagNode) {
		ep.Compute(4) // one double-word addition in the handler
		for _, t := range nd.succs {
			if nodes[t].owner == ep.ID() {
				deliver(ep, t)
			} else {
				ep.SendTo(nodes[t].owner, hSpsolveEdge, 12, t)
			}
		}
	}
	deliver = func(ep *scenario.Endpoint, id int) {
		nd := nodes[id]
		nd.remaining--
		fired[ep.ID()]++
		if nd.remaining == 0 {
			propagate(ep, nd)
		}
	}

	for id := 0; id < P; id++ {
		m.Endpoint(id).Handle(hSpsolveEdge, func(d *scenario.Delivery) {
			deliver(d.EP, d.Payload.(int))
		})
	}
	sc := scenario.New()
	for id := 0; id < P; id++ {
		me := id
		sc.At(id, func(ep *scenario.Endpoint) {
			// Fire the local roots, then service edges to completion.
			for i, dn := range nodes {
				if dn.owner == me && dn.indegree == 0 {
					propagate(ep, nodes[i])
				}
			}
			ep.PollUntil(func() bool { return fired[me] >= expected[me] })
		})
	}
	return m.Run(sc)
}
