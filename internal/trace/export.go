package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// Export renders recorded telemetry as Chrome trace-event JSON
// (the format chrome://tracing and https://ui.perfetto.dev load
// directly). Mapping:
//
//   - process (pid) = simulated node; a trailing process per capture
//     carries the sampler's counter tracks.
//   - thread (tid) = one timeline per node: tid 1 "net.out" holds the
//     fabric spans of messages the node sent (admission → destination
//     accept, plus a "stall" span when window admission blocked),
//     tid 2 "user.in" the user-message spans it received (first
//     fragment injected → handler dispatched), tid 0 "events" the
//     instants (drops, retransmits, acks, duplicate deliveries), and
//     tids 8..11 the node's four torus output links (serialisation
//     spans and queue-wait instants).
//   - ts/dur are simulated cycles rendered as microseconds — exact
//     integers, so export is deterministic and byte-identical for
//     identical runs (1 displayed µs = 1 cycle = 5 ns at 200 MHz).
//
// Spans are matched FIFO per message key, which is exact wherever
// event order is FIFO by construction (links serialise one message at
// a time; the fault-free fabrics deliver in admission order) and a
// best-effort pairing under fault-injected reordering.

// Capture is one machine's telemetry: a label (the config name), the
// recorder, and the sampler (either may be nil). Multiple captures
// export into one timeline with disjoint pid ranges.
type Capture struct {
	Label string
	Rec   *Recorder
	Smp   *Sampler
}

// Summary reports what an export wrote.
type Summary struct {
	// Records is the lifecycle records read from the rings.
	Records int
	// Events is the trace events written (metadata excluded).
	Events int
	// FragSpans / UserSpans / LinkSpans / Stalls / Instants break the
	// events down. UserSpans is one per completed user message — for a
	// full-run capture it equals the workload's Delivered count.
	FragSpans int
	UserSpans int
	LinkSpans int
	Stalls    int
	Instants  int
	// Samples is the sampler counter events written.
	Samples int
	// Overwritten counts records lost to ring wrap (grow RingSize when
	// nonzero and completeness matters).
	Overwritten uint64
	// OpenSpans counts span starts left unmatched at export time
	// (messages still in flight when the run stopped).
	OpenSpans int
}

// taggedRec is a record plus its ring's node, for the merged scan.
type taggedRec struct {
	Record
	node int32
}

// spanKey identifies a fragment's admission/delivery pairing.
type spanKey struct {
	src, dst int32
	id       uint64
	frag     uint8
	ack      bool
}

// userKey identifies a user message's inject/dispatch pairing.
type userKey struct {
	src, dst int32
	id       uint64
}

// chromeWriter emits trace events with explicit comma state and
// tracks (pid, tid) pairs for the metadata pass.
type chromeWriter struct {
	w     *bufio.Writer
	first bool
	used  map[[2]int]bool
}

func (cw *chromeWriter) sep() {
	if cw.first {
		cw.first = false
		return
	}
	cw.w.WriteString(",\n")
}

// event emits one complete ("X") or instant ("i") event.
func (cw *chromeWriter) span(pid, tid int, ts, dur uint64, name string) {
	cw.sep()
	fmt.Fprintf(cw.w, `{"ph":"X","pid":%d,"tid":%d,"ts":%d,"dur":%d,"name":%q}`, pid, tid, ts, dur, name)
	cw.used[[2]int{pid, tid}] = true
}

func (cw *chromeWriter) instant(pid, tid int, ts uint64, name string) {
	cw.sep()
	fmt.Fprintf(cw.w, `{"ph":"i","pid":%d,"tid":%d,"ts":%d,"s":"t","name":%q}`, pid, tid, ts, name)
	cw.used[[2]int{pid, tid}] = true
}

func (cw *chromeWriter) counter(pid int, ts uint64, name string, v float64) {
	cw.sep()
	fmt.Fprintf(cw.w, `{"ph":"C","pid":%d,"ts":%d,"name":%q,"args":{"v":%s}}`,
		pid, ts, name, strconv.FormatFloat(v, 'g', -1, 64))
	cw.used[[2]int{pid, 0}] = true
}

func (cw *chromeWriter) meta(pid int, kind, name string) {
	cw.sep()
	fmt.Fprintf(cw.w, `{"ph":"M","pid":%d,"name":%q,"args":{"name":%q}}`, pid, kind, name)
}

func (cw *chromeWriter) threadMeta(pid, tid int, name string) {
	cw.sep()
	fmt.Fprintf(cw.w, `{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":%q}}`, pid, tid, name)
}

// Track tids within a node's process.
const (
	tidEvents = 0
	tidNetOut = 1
	tidUserIn = 2
	tidLink0  = 8 // + direction index (x+, x-, y+, y-)
)

var linkDirNames = [4]string{"x+", "x-", "y+", "y-"}

func tidName(tid int) string {
	switch {
	case tid == tidEvents:
		return "events"
	case tid == tidNetOut:
		return "net.out"
	case tid == tidUserIn:
		return "user.in"
	case tid >= tidLink0 && tid < tidLink0+4:
		return "link." + linkDirNames[tid-tidLink0]
	}
	return fmt.Sprintf("tid%d", tid)
}

// WriteChrome writes the captures as one Chrome trace-event JSON
// document. Byte-identical output for identical simulations.
func WriteChrome(w io.Writer, caps ...Capture) (Summary, error) {
	var sum Summary
	bw := bufio.NewWriter(w)
	cw := &chromeWriter{w: bw, first: true, used: make(map[[2]int]bool)}
	bw.WriteString("{\"traceEvents\":[\n")

	pidBase := 0
	type pidLabel struct {
		pid  int
		name string
	}
	var pids []pidLabel
	for _, c := range caps {
		nodes := 0
		if c.Rec != nil {
			nodes = c.Rec.Nodes()
		}
		prefix := ""
		if c.Label != "" {
			prefix = c.Label + "/"
		}
		for n := 0; n < nodes; n++ {
			pids = append(pids, pidLabel{pidBase + n, fmt.Sprintf("%snode%d", prefix, n)})
		}
		if c.Rec != nil {
			sum.Overwritten += c.Rec.Overwritten()
			exportRecords(cw, c.Rec, pidBase, &sum)
		}
		if c.Smp != nil {
			ctrPid := pidBase + nodes
			pids = append(pids, pidLabel{ctrPid, prefix + "series"})
			exportSamples(cw, c.Smp, ctrPid, &sum)
		}
		pidBase += nodes + 1
	}

	// Metadata last (order is irrelevant to the format): process names
	// and the names of every thread track actually used.
	for _, p := range pids {
		cw.meta(p.pid, "process_name", p.name)
	}
	var tracks [][2]int
	for k := range cw.used {
		tracks = append(tracks, k)
	}
	sort.Slice(tracks, func(i, j int) bool {
		if tracks[i][0] != tracks[j][0] {
			return tracks[i][0] < tracks[j][0]
		}
		return tracks[i][1] < tracks[j][1]
	})
	for _, t := range tracks {
		cw.threadMeta(t[0], t[1], tidName(t[1]))
	}

	bw.WriteString("\n],\"displayTimeUnit\":\"ms\"}\n")
	return sum, bw.Flush()
}

// exportRecords scans one recorder's merged rings, pairing span
// starts with their ends and emitting instants for the rest.
func exportRecords(cw *chromeWriter, rec *Recorder, pidBase int, sum *Summary) {
	total := 0
	for n := 0; n < rec.Nodes(); n++ {
		total += rec.Len(n)
	}
	// Sized up front: the merged scan is the export's largest buffer
	// (a full ring set is megabytes), and growing it by doubling
	// leaves as much again behind as garbage at the export's peak.
	all := make([]taggedRec, 0, total)
	var buf []Record
	for n := 0; n < rec.Nodes(); n++ {
		buf = rec.records(n, buf[:0])
		for _, r := range buf {
			all = append(all, taggedRec{r, int32(n)})
		}
	}
	// Stable by time: rings are individually chronological and were
	// appended in node order, so ties resolve node-low-first — a fixed,
	// deterministic order.
	sort.SliceStable(all, func(i, j int) bool { return all[i].At < all[j].At })
	sum.Records += len(all)

	injects := make(map[spanKey][]uint64) // KInject awaiting KAdmit
	admits := make(map[spanKey][]uint64)  // KAdmit awaiting KDeliver
	users := make(map[userKey][]uint64)   // first-frag KInject awaiting KUserDeliver
	links := make(map[int32][]taggedRec)  // KLinkTx awaiting KLinkFree

	popT := func(m map[spanKey][]uint64, k spanKey) (uint64, bool) {
		q := m[k]
		if len(q) == 0 {
			return 0, false
		}
		m[k] = q[1:]
		return q[0], true
	}

	for _, r := range all {
		pid := pidBase + int(r.node)
		ack := r.Flags&FlagAck != 0
		k := spanKey{r.Src, r.Dst, r.ID, r.Frag, ack}
		switch r.Kind {
		case KInject:
			injects[k] = append(injects[k], r.At)
			if !ack && r.Flags&FlagDup == 0 && r.Frag == 0 {
				uk := userKey{r.Src, r.Dst, r.ID}
				users[uk] = append(users[uk], r.At)
			}
		case KAdmit:
			if at, ok := popT(injects, k); ok && r.At > at {
				cw.span(pid, tidNetOut, at, r.At-at, spanName("stall", &r.Record, ack))
				sum.Stalls++
				sum.Events++
			}
			admits[k] = append(admits[k], r.At)
		case KDeliver:
			if r.Flags&FlagDup != 0 {
				cw.instant(pid, tidEvents, r.At, spanName("dup", &r.Record, ack))
				sum.Instants++
				sum.Events++
				break
			}
			if at, ok := popT(admits, k); ok {
				// The span lives on the *sender's* outbound track: where
				// the message's fabric time was spent.
				cw.span(pidBase+int(r.Src), tidNetOut, at, r.At-at, spanName("m", &r.Record, ack))
				sum.FragSpans++
				sum.Events++
			}
		case KUserDeliver:
			uk := userKey{r.Src, r.Dst, r.ID}
			if q := users[uk]; len(q) > 0 {
				users[uk] = q[1:]
				cw.span(pid, tidUserIn, q[0], r.At-q[0], fmt.Sprintf("u%d n%d>n%d", r.ID, r.Src, r.Dst))
				sum.UserSpans++
				sum.Events++
			}
		case KLinkTx:
			links[r.Link] = append(links[r.Link], r)
		case KLinkFree:
			if q := links[r.Link]; len(q) > 0 {
				tx := q[0]
				links[r.Link] = q[1:]
				cw.span(pid, linkTid(r.Link), tx.At, r.At-tx.At, spanName("tx", &tx.Record, tx.Flags&FlagAck != 0))
				sum.LinkSpans++
				sum.Events++
			}
		case KLinkWait:
			cw.instant(pid, linkTid(r.Link), r.At, spanName("wait", &r.Record, ack))
			sum.Instants++
			sum.Events++
		case KDrop:
			cw.instant(pid, tidEvents, r.At, spanName("drop", &r.Record, ack))
			sum.Instants++
			sum.Events++
		case KRetx:
			cw.instant(pid, tidEvents, r.At, fmt.Sprintf("retx n%d>n%d seq%d", r.Src, r.Dst, r.ID))
			sum.Instants++
			sum.Events++
		case KAck:
			cw.instant(pid, tidEvents, r.At, fmt.Sprintf("ack n%d>n%d #%d", r.Src, r.Dst, r.ID))
			sum.Instants++
			sum.Events++
		}
	}

	for _, q := range injects {
		sum.OpenSpans += len(q)
	}
	for _, q := range admits {
		sum.OpenSpans += len(q)
	}
	for _, q := range users {
		sum.OpenSpans += len(q)
	}
	for _, q := range links {
		sum.OpenSpans += len(q)
	}
}

// linkTid maps a torus link index to its owner-process thread: links
// are numbered node*4+direction (dimension-order x+, x-, y+, y-).
func linkTid(li int32) int { return tidLink0 + int(li&3) }

// spanName renders a message-scoped event name.
func spanName(verb string, r *Record, ack bool) string {
	if ack {
		return fmt.Sprintf("%s ack n%d>n%d", verb, r.Src, r.Dst)
	}
	return fmt.Sprintf("%s m%d.%d n%d>n%d", verb, r.ID, r.Frag, r.Src, r.Dst)
}

// exportSamples renders the sampler's series as counter tracks on the
// capture's trailing process.
func exportSamples(cw *chromeWriter, s *Sampler, pid int, sum *Summary) {
	times := s.Times()
	for c := 0; c < s.Columns(); c++ {
		name := s.ColumnName(c)
		vals := s.Values(c)
		for i, t := range times {
			cw.counter(pid, t, name, vals[i])
			sum.Samples++
			sum.Events++
		}
	}
}
