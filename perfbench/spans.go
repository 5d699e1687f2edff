package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call from the benchmark into the simulator, with
// the span that contains it (-1 for the repetition's root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spanLog keeps a repetition's spans in memory until write.
type spanLog struct {
	t0    time.Time
	spans []span
}

// start opens a span under parent and returns the function that
// closes it.
func (l *spanLog) start(name string, parent int) (end func()) {
	i := len(l.spans)
	l.spans = append(l.spans, span{ID: i, Parent: parent, Name: name, StartNS: time.Since(l.t0).Nanoseconds()})
	return func() { l.spans[i].EndNS = time.Since(l.t0).Nanoseconds() }
}

// write stores the spans and the run's provenance as one JSON file.
func (l *spanLog) write(path string, prov map[string]any) error {
	b, err := json.MarshalIndent(map[string]any{"provenance": prov, "spans": l.spans}, "", " ")
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
