package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when
// bench spawns a repetition.
func TestMain(m *testing.M) {
	if os.Getenv(repEnv) == "1" {
		os.Exit(repMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// contract is the part of BENCHMARK.json the benchmark must honour.
type contract struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSmoke runs every workload at its tiny size, untraced and traced,
// through the same entry point as the real benchmark, and checks the
// result line against BENCHMARK.json: every named metric, with its
// unit, and nothing else.
func TestSmoke(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].name {
			t.Fatalf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, w.Name, workloads[i].name)
		}
		for _, trace := range []int{0, 1} {
			// Seed 1 checks the pins, seed 7 the invariants.
			seed := map[int]int{0: defaultSeed, 1: 7}[trace]
			t.Run(fmt.Sprintf("%s/trace%d", w.Name, trace), func(t *testing.T) {
				out := t.TempDir()
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", w.Name, "--seed", fmt.Sprint(seed), "--seconds", "0.001",
					"--trace", fmt.Sprint(trace), "--small", "--out", out}
				if code := benchMain(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if len(res) != 4 {
					t.Errorf("result keys %v, want correct, attempted, failed, metrics", res)
				}
				var r result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
					t.Fatal(err)
				}
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Fatalf("correct %v, attempted %d, failed %d: %s", r.Correct, r.Attempted, r.Failed, stderr.String())
				}
				want := c.EndToEnd
				if trace == 1 {
					want = c.PerLayer
				}
				for _, m := range want {
					got, ok := r.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
					}
				}
				if len(r.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json names %d", len(r.Metrics), len(want))
				}
				if !strings.Contains(lines[0], `"provenance"`) || !strings.Contains(lines[0], `"gomaxprocs"`) {
					t.Errorf("no provenance line: %s", lines[0])
				}
				if trace == 1 {
					checkSpans(t, filepath.Join(out, fmt.Sprintf("%s-seed%d.spans.json", w.Name, seed)))
				}
			})
		}
	}
}

// checkSpans checks a traced run's span file: one root, every other
// span inside the root, and the run's provenance.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Provenance map[string]any
		Spans      []span
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if f.Provenance["seed"] == nil || f.Provenance["configs"] == nil {
		t.Errorf("span file provenance %v", f.Provenance)
	}
	if len(f.Spans) < 2 || f.Spans[0].Parent != -1 {
		t.Fatalf("spans %+v, want a root and its children", f.Spans)
	}
	root := f.Spans[0]
	for _, s := range f.Spans[1:] {
		if s.Parent != root.ID || s.StartNS < root.StartNS || s.EndNS > root.EndNS || s.EndNS < s.StartNS {
			t.Errorf("span %+v not inside root %+v", s, root)
		}
	}
}

// TestPerturbedPinFails checks that a simulated output differing from
// its pin counts as a failed operation, and only that one.
func TestPerturbedPinFails(t *testing.T) {
	w, err := lookupWorkload("paper16-flat")
	if err != nil {
		t.Fatal(err)
	}
	o := options{workload: w.name, seed: defaultSeed, small: true, out: t.TempDir()}
	pinned := pinsFor(w, o.seed, o.small)
	if len(pinned) == 0 {
		t.Fatal("no pins for the small paper16-flat workload")
	}
	rec, err := runRep(w, o, pinned)
	if err != nil || rec.Failed != 0 {
		t.Fatalf("unperturbed: failed %d, err %v, failures %v", rec.Failed, err, rec.Failures)
	}
	perturbed := map[string]uint64{}
	for k, v := range pinned {
		perturbed[k] = v
	}
	for k := range perturbed {
		if strings.HasSuffix(k, "/cycles") {
			perturbed[k]++
			break
		}
	}
	rec, err = runRep(w, o, perturbed)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Failed != 1 || rec.Attempted != 2 {
		t.Fatalf("perturbed pin: attempted %d, failed %d, want 2 and 1", rec.Attempted, rec.Failed)
	}
}

func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"repro/internal/msg.(*Messenger).Poll", "main.main"}, "msg"},
		{[]string{"math.Log", "repro/internal/workload.(*gen).next"}, "workload"},
		{[]string{"runtime.futex", "runtime.chanrecv", "repro/internal/sim.(*Process).Sleep"}, "runtime.sched"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.memmove", "repro/internal/msg.(*Messenger).Send"}, "runtime.other"},
		{[]string{"repro/internal/params.Config.Name", "main.main"}, "runtime.other"},
		{[]string{"main.main"}, "runtime.other"},
	} {
		if got := classify(tc.stack); got != tc.want {
			t.Errorf("classify(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}
