package sim

import (
	"fmt"
	"runtime"
	"testing"
)

// shardTrace runs a small ShardSet machine — one process per node that
// sleeps, sends cross-shard messages round the ring and waits for its
// inbox — and returns every node's event log. procs is the GOMAXPROCS
// to run under: above 1 the epoch pool's goroutines resume processes
// created on the test goroutine, at 1 the shards run inline.
func shardTrace(shards, procs int) []string {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	const nodes, lookahead, rounds = 8, 10, 40
	s := NewShardSet(nodes, shards, lookahead)
	logs := make([][]string, nodes) // each written only on its node's shard
	inbox := make([]int, nodes)
	conds := make([]Cond, nodes)
	s.SetDispatch(func(ev *CrossEvent) {
		n := ev.Node
		logs[n] = append(logs[n], fmt.Sprintf("t=%d recv from %d #%d", ev.At, ev.Aux, ev.Key&0xffff))
		inbox[n]++
		conds[n].Signal()
	})
	for n := 0; n < nodes; n++ {
		n := n
		s.Engine(n).Spawn(fmt.Sprint("node", n), func(p *Process) {
			for i := 0; i < rounds; i++ {
				p.Sleep(Time(3 + (n*7+i)%5))
				dst := (n + 1 + i%3) % nodes
				s.Cross(n, CrossEvent{At: p.Now() + lookahead + Time(i%4),
					Key: uint64(n)<<16 | uint64(i), Node: int32(dst), Aux: int32(n)})
				logs[n] = append(logs[n], fmt.Sprintf("t=%d send to %d #%d", p.Now(), dst, i))
				if i%3 == 2 {
					for inbox[n] == 0 {
						conds[n].Wait(p)
					}
					inbox[n]--
					logs[n] = append(logs[n], fmt.Sprintf("t=%d took one", p.Now()))
				}
			}
		})
	}
	end := s.RunAll()
	s.Stop()
	var out []string
	for n, l := range logs {
		out = append(out, fmt.Sprintf("node %d end %d", n, end))
		out = append(out, l...)
	}
	return out
}

func TestShardSetPoolMatchesInline(t *testing.T) {
	ref := shardTrace(1, 1)
	for _, shards := range []int{2, 4} {
		for _, procs := range []int{2, 1} {
			got := shardTrace(shards, procs)
			if len(got) != len(ref) {
				t.Fatalf("%d shards at GOMAXPROCS=%d: %d log lines, want %d", shards, procs, len(got), len(ref))
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("%d shards at GOMAXPROCS=%d: line %d = %q, want %q", shards, procs, i, got[i], ref[i])
				}
			}
		}
	}
}
