package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the simulator's packages under repro/internal that the
// profile fold reports host time for, by package name.
var layers = []string{
	"sim", "machine", "scenario", "proc", "cache", "bus", "nic", "network",
	"fault", "msg", "trace", "workload", "dcn", "apps",
}

// Runtime functions whose presence on a stack marks a sample as
// garbage-collection or scheduler work. A runtime leaf under neither
// is runtime.other (allocation, memmove, map access, ...).
var (
	gcFuncs = []string{
		"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
		"runtime.markroot", "runtime.scanobject", "runtime.greyobject",
		"runtime.bgsweep", "runtime.sweepone", "runtime.gcStart",
		"runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.bgscavenge",
		"runtime.(*mspan).sweep", "runtime.(*sweepLocked).sweep",
		"runtime.deductAssistCredit", "runtime.GC",
	}
	schedFuncs = []string{
		"runtime.chansend", "runtime.chanrecv", "runtime.selectgo",
		"runtime.gopark", "runtime.goready", "runtime.ready",
		"runtime.schedule", "runtime.findRunnable", "runtime.park_m",
		"runtime.mcall", "runtime.gosched", "runtime.goschedImpl",
		"runtime.execute", "runtime.wakep", "runtime.startm", "runtime.stopm",
		"runtime.notesleep", "runtime.notewakeup", "runtime.futex",
		"runtime.runqget", "runtime.runqput", "runtime.runqsteal",
		"runtime.stealWork", "runtime.casgstatus", "runtime.newproc",
		"runtime.goexit0", "runtime.gogo", "runtime.resetspinning",
		"runtime.checkTimers", "runtime.netpoll", "runtime.usleep",
		"runtime.osyield", "runtime.sysmon",
	}
)

// onStack reports whether any frame of stack is, or is a closure of,
// one of names.
func onStack(stack []string, names []string) bool {
	for _, fn := range stack {
		for _, n := range names {
			if fn == n || strings.HasPrefix(fn, n+".") || strings.HasPrefix(fn, n+"[") {
				return true
			}
		}
	}
	return false
}

func isRuntime(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/") ||
		strings.HasPrefix(fn, "runtime/internal/")
}

// layerOf returns the repro/internal package a function belongs to,
// or "".
func layerOf(fn string) string {
	const p = "repro/internal/"
	if !strings.HasPrefix(fn, p) {
		return ""
	}
	rest := fn[len(p):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// classify charges one sample's stack (leaf first) to a bucket: a
// runtime leaf to runtime.gc, runtime.sched or runtime.other by what
// the stack is doing; any other leaf to the nearest repro/internal
// package on the stack, so standard-library helpers count against the
// layer that called them. Samples with no simulator frame at all fall
// into runtime.other.
func classify(stack []string) string {
	if len(stack) == 0 {
		return "runtime.other"
	}
	if isRuntime(stack[0]) {
		switch {
		case onStack(stack, gcFuncs):
			return "runtime.gc"
		case onStack(stack, schedFuncs):
			return "runtime.sched"
		}
		return "runtime.other"
	}
	for _, fn := range stack {
		if l := layerOf(fn); l != "" {
			for _, want := range layers {
				if l == want {
					return l
				}
			}
			return "runtime.other"
		}
	}
	return "runtime.other"
}

// foldProfile folds a gzipped pprof CPU profile into CPU seconds per
// bucket (see classify).
func foldProfile(data []byte) (map[string]float64, error) {
	p, err := parseProfile(data)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, s := range p.samples {
		var stack []string
		for _, id := range s.locs {
			for _, fid := range p.locs[id] {
				stack = append(stack, p.funcs[fid])
			}
		}
		out[classify(stack)] += float64(s.nanos) / 1e9
	}
	return out, nil
}

// profile is the part of a pprof profile the fold needs.
type profile struct {
	samples []sample
	locs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcs   map[uint64]string   // function id -> name
}

type sample struct {
	locs  []uint64 // leaf first
	nanos int64
}

// parseProfile decodes the profile.proto messages the fold reads:
// samples (field 2), locations (4), functions (5) and the string table
// (6). A CPU profile's second sample value is CPU nanoseconds.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]string{}}
	var strs []string
	funcName := map[uint64]uint64{} // function id -> string index
	err := eachField(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s sample
			var vals []uint64
			if err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					vals = appendPacked(vals, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) < 2 {
				return errors.New("profile: sample without a CPU-time value")
			}
			s.nanos = int64(vals[1])
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fids []uint64
			if err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fids = append(fids, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locs[id] = fids
		case 5:
			var id, name uint64
			if err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, si := range funcName {
		if si >= uint64(len(strs)) {
			return nil, fmt.Errorf("profile: function %d names string %d of %d", id, si, len(strs))
		}
		p.funcs[id] = strs[si]
	}
	return p, nil
}

// appendPacked appends a repeated scalar field, sent either as one
// varint (b == nil) or packed into a length-delimited run.
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			field := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, field); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}
