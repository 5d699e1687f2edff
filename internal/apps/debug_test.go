package apps

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/params"
)

// TestDebugSpsolveCounters prints aggregate counters for spsolve on
// the queue-based CNIs, used while validating the flow-control model
// against the paper's §5.2 narrative. The counters are the run's
// scenario.Trace deltas (every counter that moved).
func TestDebugSpsolveCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("debug diagnostics")
	}
	interesting := func(name string) bool {
		return strings.HasPrefix(name, "tx.") ||
			strings.HasPrefix(name, "net.") ||
			strings.Contains(name, "send.full") ||
			strings.Contains(name, "swbuffered") ||
			strings.Contains(name, "headrefresh") ||
			strings.Contains(name, "qfull") ||
			strings.Contains(name, "send.block") ||
			strings.Contains(name, "overflowWB")
	}
	for _, ni := range []params.NIKind{params.CNI4, params.CNI16Q, params.CNI512Q, params.CNI16Qm} {
		tr := NewSpsolve().run(cfg16(ni))
		names := make([]string, 0, len(tr.Counters))
		for name := range tr.Counters {
			if interesting(name) {
				names = append(names, name)
			}
		}
		slices.Sort(names)
		for _, name := range names {
			t.Logf("  %-40s %d", name, tr.Counters[name])
		}
		t.Logf("%s total: %d cycles, %d msgs", ni, tr.Cycles(), tr.Counter("net.msg"))
	}
}
