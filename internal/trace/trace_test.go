package trace

import (
	"testing"

	"repro/internal/sim"
)

func TestRecorderRingWrap(t *testing.T) {
	e := sim.NewEngine()
	r := NewRecorder(e, 2, 4)
	if r.Nodes() != 2 {
		t.Fatalf("Nodes = %d, want 2", r.Nodes())
	}
	for i := 0; i < 10; i++ {
		r.Note(1, KInject, uint64(i), -1, 1, 0, 0, 0)
	}
	if got := r.Len(1); got != 4 {
		t.Errorf("Len(1) = %d, want 4 (ring capacity)", got)
	}
	if got := r.Len(0); got != 0 {
		t.Errorf("Len(0) = %d, want 0 (untouched ring)", got)
	}
	if got := r.Overwritten(); got != 6 {
		t.Errorf("Overwritten = %d, want 6", got)
	}
	// A wrapped ring keeps the newest records, oldest first.
	recs := r.records(1, nil)
	if len(recs) != 4 {
		t.Fatalf("records: %d, want 4", len(recs))
	}
	for i, rec := range recs {
		if want := uint64(6 + i); rec.ID != want {
			t.Errorf("records[%d].ID = %d, want %d", i, rec.ID, want)
		}
		if rec.Kind != KInject || rec.Src != 1 || rec.Dst != 0 || rec.Link != -1 {
			t.Errorf("records[%d] = %+v: fields not preserved", i, rec)
		}
	}
}

func TestRecorderRingWrapAcrossChunks(t *testing.T) {
	e := sim.NewEngine()
	const size = 2*chunkLen + 100 // the last chunk is short
	r := NewRecorder(e, 1, size)
	for i := 0; i < chunkLen+1; i++ {
		r.Note(0, KInject, uint64(i), -1, 0, 1, 0, 0)
	}
	if c := r.rings[0].chunks; c[1] == nil || c[2] != nil {
		t.Fatalf("after %d records, chunks allocated = %v %v %v, want the first two only",
			chunkLen+1, c[0] != nil, c[1] != nil, c[2] != nil)
	}
	const total = 3*chunkLen + 7
	for i := chunkLen + 1; i < total; i++ {
		r.Note(0, KInject, uint64(i), -1, 0, 1, 0, 0)
	}
	if n := len(r.rings[0].chunks[2]); n != 100 {
		t.Errorf("last chunk holds %d records, want 100", n)
	}
	if got := r.Overwritten(); got != total-size {
		t.Errorf("Overwritten = %d, want %d", got, total-size)
	}
	recs := r.records(0, nil)
	if len(recs) != size {
		t.Fatalf("records: %d, want %d", len(recs), size)
	}
	for i, rec := range recs {
		if want := uint64(total - size + i); rec.ID != want {
			t.Fatalf("records[%d].ID = %d, want %d", i, rec.ID, want)
		}
	}
}

func TestRecorderPartialRing(t *testing.T) {
	e := sim.NewEngine()
	r := NewRecorder(e, 1, 8)
	r.Note(0, KAdmit, 42, -1, 0, 1, 3, FlagAck)
	recs := r.records(0, nil)
	if len(recs) != 1 {
		t.Fatalf("records: %d, want 1", len(recs))
	}
	rec := recs[0]
	if rec.ID != 42 || rec.Kind != KAdmit || rec.Frag != 3 || rec.Flags != FlagAck {
		t.Errorf("record = %+v", rec)
	}
	if r.Overwritten() != 0 {
		t.Errorf("Overwritten = %d on a non-wrapped ring", r.Overwritten())
	}
}

func TestKindNames(t *testing.T) {
	for k := Kind(1); k < kindCount; k++ {
		if k.String() == "?" {
			t.Errorf("Kind(%d) has no export name", k)
		}
	}
	if Kind(0).String() != "?" || kindCount.String() != "?" {
		t.Error("out-of-range kinds should render as ?")
	}
}

// TestSamplerColumns pins the columnar semantics: gauges sample
// point-in-time values, deltas report per-interval increments, and the
// tick stops itself at quiescence so RunAll terminates.
func TestSamplerColumns(t *testing.T) {
	e := sim.NewEngine()
	s := NewSampler(e, 10)
	g, n := 0.0, 0.0
	s.Gauge("g", func() float64 { return g })
	s.Delta("d", func() float64 { return n })
	e.Schedule(5, func() { g, n = 1, 3 })
	e.Schedule(25, func() { g, n = 2, 10 })
	s.Ensure()
	e.RunAll()
	// Ticks at 10 and 20 observe the t=5 state, the tick at 30 the
	// t=25 state; with nothing else pending at 30 the sampler stops.
	if s.Rows() != 3 {
		t.Fatalf("Rows = %d, want 3 (times %v)", s.Rows(), s.Times())
	}
	if h := s.Header(); len(h) != 3 || h[0] != "cycle" || h[1] != "g" || h[2] != "d" {
		t.Errorf("Header = %v", h)
	}
	if ts := s.Times(); ts[0] != 10 || ts[1] != 20 || ts[2] != 30 {
		t.Errorf("Times = %v, want [10 20 30]", ts)
	}
	if gv := s.Values(0); gv[0] != 1 || gv[1] != 1 || gv[2] != 2 {
		t.Errorf("gauge series = %v, want [1 1 2]", gv)
	}
	if dv := s.Values(1); dv[0] != 3 || dv[1] != 0 || dv[2] != 7 {
		t.Errorf("delta series = %v, want [3 0 7]", dv)
	}
}

// TestSamplerReArms pins Ensure's contract for back-to-back runs: a
// sampler that stopped at quiescence resumes on the next Ensure.
func TestSamplerReArms(t *testing.T) {
	e := sim.NewEngine()
	s := NewSampler(e, 10)
	s.Gauge("g", func() float64 { return 0 })
	e.Schedule(5, func() {})
	s.Ensure()
	e.RunAll()
	first := s.Rows()
	if first == 0 {
		t.Fatal("no rows from the first run")
	}
	e.Schedule(15, func() {})
	s.Ensure()
	e.RunAll()
	if s.Rows() <= first {
		t.Errorf("Rows = %d after second run, want > %d", s.Rows(), first)
	}
}

// TestSamplerValuesBeforeTick pins the nil-safety of Values on a
// sampler that never ticked (exporting an idle machine).
func TestSamplerValuesBeforeTick(t *testing.T) {
	s := NewSampler(sim.NewEngine(), 10)
	s.Gauge("g", func() float64 { return 0 })
	if v := s.Values(0); v != nil {
		t.Errorf("Values before first tick = %v, want nil", v)
	}
}
