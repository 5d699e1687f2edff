// Command perfbench is the repository's host-performance benchmark.
// It runs one workload (workloads.go) as repeated child processes for
// a fixed time, checks every simulated result against pinned outputs
// or invariants, and prints a provenance line and then one JSON result
// line. From the repository root:
//
//	python3 perfbench/run.py --workload paper16-flat --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics, each the
// median over the repetitions. With --trace 1 it holds the per-layer
// metrics of one extra repetition run under a CPU profile, after
// untraced repetitions that give the profile's overhead base. See
// README.md.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	cni "repro"
)

// repEnv marks a child process that runs one repetition.
const repEnv = "PERFBENCH_REP"

// gomaxprocs is every repetition's GOMAXPROCS. On a shared 2-vCPU host
// a second P made open1k-torus's epoch barriers wait on a descheduled
// vCPU: with steal time near 20%, one repetition took 2.5-4.0 s at two
// Ps and 2.7-3.1 s at one, and the epoch pool gains nothing from a
// second core. The serial-engine workloads use the second P only for
// GC and spinning, so all three run at one.
const gomaxprocs = 1

func main() {
	if os.Getenv(repEnv) == "1" {
		os.Exit(repMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the flags shared by the benchmark and its children.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	small    bool
	out      string
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 30, "measurement time in seconds")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a profiled run")
	fs.BoolVar(&o.small, "small", false, "tiny workload sizes, for the smoke test")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for profiles and spans")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, have %d", trace)
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds must be positive, have %v", o.seconds)
	}
	o.trace = trace == 1
	_, err := lookupWorkload(o.workload)
	return o, err
}

// args are the flags that hand o to a child repetition.
func (o options) args(traced bool) []string {
	trace := "0"
	if traced {
		trace = "1"
	}
	return []string{
		"--workload", o.workload, "--seed", strconv.FormatUint(o.seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", trace,
		"--small=" + strconv.FormatBool(o.small), "--out", o.out,
	}
}

// repRecord is one repetition's measurements, passed from child to
// parent as JSON.
type repRecord struct {
	Configs    []string           `json:"configs"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Failures   []string           `json:"failures,omitempty"`
	WallS      float64            `json:"wall_s"`
	SetupS     float64            `json:"setup_s"`
	RunS       float64            `json:"run_s"`
	NodeCycles float64            `json:"node_cycles"`
	CPUS       float64            `json:"cpu_s"`
	PeakRSSMB  float64            `json:"peak_rss_mb"`
	AllocMB    float64            `json:"alloc_mb"`
	Outputs    map[string]uint64  `json:"outputs"` // every checked output, the source of pins.go
	Layers     map[string]float64 `json:"layers,omitempty"`
}

// outputs are one operation's simulated results, checked against the
// pins.
type outputs map[string]uint64

// rep is the state of one repetition.
type rep struct {
	seed   uint64
	small  bool
	traced bool
	pins   map[string]uint64 // nil: invariants only
	spans  *spanLog
	root   int
	uses   []machineUse
	probes map[string]*buildProbe // by Config.Name()
	rec    repRecord
	layers map[string]float64
}

// config records a machine configuration the workload builds.
func (r *rep) config(cfg cni.Config) { r.rec.Configs = append(r.rec.Configs, cfg.Name()) }

// op runs one checked simulator operation. An error, a panic or an
// output that differs from its pin counts the operation as failed.
func (r *rep) op(name string, fn func(outputs) error) {
	r.rec.Attempted++
	out := outputs{}
	err := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("panic: %v", p)
			}
		}()
		return fn(out)
	}()
	if err == nil && r.pins != nil {
		err = checkPins(r.pins, name, out)
	}
	for k, v := range out {
		r.rec.Outputs[name+"/"+k] = v
	}
	if err != nil {
		r.rec.Failed++
		r.rec.Failures = append(r.rec.Failures, name+": "+err.Error())
	}
}

func checkPins(pins map[string]uint64, name string, out outputs) error {
	keys := make([]string, 0, len(out))
	for k := range out {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		want, ok := pins[name+"/"+k]
		if !ok {
			return fmt.Errorf("no pin for %s/%s", name, k)
		}
		if out[k] != want {
			return fmt.Errorf("%s = %d, pinned %d", k, out[k], want)
		}
	}
	return nil
}

// machineUse is one machine a workload built, settled after the
// measured window against standalone builds of its configuration.
type machineUse struct {
	name  string
	build float64 // build seconds seen in the run; 0 when the entry point hides the build
	setup bool    // the median build is this machine's set-up time
	inRun bool    // the run seconds include this build
}

// buildProbe holds timed standalone builds of one configuration.
type buildProbe struct{ builds, closes, allocMB []float64 }

// probe times k standalone cni.Build and Close calls of cfg, each after
// a collection so that garbage from earlier work is not charged to the
// build. It runs after the measured window, so its allocation and
// memory stay out of the end-to-end metrics.
func (r *rep) probe(cfg cni.Config, k int) error {
	p := &buildProbe{}
	var ms runtime.MemStats
	for i := 0; i < k; i++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		t0 := time.Now()
		m, err := cni.Build(cfg)
		if err != nil {
			return fmt.Errorf("build %s: %w", cfg.Name(), err)
		}
		p.builds = append(p.builds, time.Since(t0).Seconds())
		runtime.ReadMemStats(&ms)
		p.allocMB = append(p.allocMB, float64(ms.TotalAlloc-before)/1e6)
		t0 = time.Now()
		m.Close()
		p.closes = append(p.closes, time.Since(t0).Seconds())
	}
	r.probes[cfg.Name()] = p
	return nil
}

// settle charges every machine the run built to set-up and to the
// per-layer build, close and allocation metrics, from the median of
// its probe's builds and any build the run saw.
func (r *rep) settle() {
	for _, u := range r.uses {
		p := r.probes[u.name]
		builds := p.builds
		if u.build > 0 {
			builds = append(builds[:len(builds):len(builds)], u.build)
		}
		build := median(builds)
		if u.setup {
			r.rec.SetupS += build
		}
		if u.inRun {
			r.rec.RunS -= build
		}
		r.layers["machine.build_s"] += build
		r.layers["machine.close_s"] += median(p.closes)
		r.layers["machine.build_alloc_mb"] += median(p.allocMB)
	}
	r.layers["scenario.run_s"] = r.rec.RunS
}

// runRep runs one repetition in this process. Traced repetitions run
// under a CPU profile that is folded into per-layer host time, and
// write their spans and profile under out.
func runRep(w workload, o options, pins map[string]uint64) (repRecord, error) {
	r := &rep{
		seed: o.seed, small: o.small, traced: o.trace, pins: pins,
		spans:  &spanLog{t0: time.Now()},
		layers: map[string]float64{},
		probes: map[string]*buildProbe{},
		rec:    repRecord{GOMAXPROCS: runtime.GOMAXPROCS(0), Outputs: map[string]uint64{}},
	}
	var prof bytes.Buffer
	if r.traced {
		// pprof's default 100 Hz: on a virtual machine faster rates
		// lose samples (at 1 kHz a quarter of the CPU time was seen).
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return r.rec, fmt.Errorf("start profile: %w", err)
		}
	}
	var ru0, ru1 syscall.Rusage
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru0); err != nil {
		return r.rec, fmt.Errorf("getrusage: %w", err)
	}
	r.root = len(r.spans.spans)
	end := r.spans.start("workload "+w.name, -1)
	t0 := time.Now()
	w.run(r)
	r.rec.WallS = time.Since(t0).Seconds()
	end()
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru1); err != nil {
		return r.rec, fmt.Errorf("getrusage: %w", err)
	}
	runtime.ReadMemStats(&ms1)
	r.rec.CPUS = cpuSeconds(ru1) - cpuSeconds(ru0)
	r.rec.AllocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6
	r.rec.PeakRSSMB = float64(ru1.Maxrss) / 1024 // Maxrss is VmHWM, in KiB on Linux
	if r.traced {
		pprof.StopCPUProfile()
	}
	if err := w.probe(r); err != nil {
		return r.rec, err
	}
	r.settle()
	if !r.traced {
		return r.rec, nil
	}
	host, err := foldProfile(prof.Bytes())
	if err != nil {
		return r.rec, err
	}
	for _, b := range append(append([]string(nil), layers...), "runtime.sched", "runtime.gc", "runtime.other") {
		r.layers[b+".host_s"] = host[b]
	}
	r.layers["sim.node_cycles"] = r.rec.NodeCycles
	r.rec.Layers = r.layers
	base := filepath.Join(o.out, fmt.Sprintf("%s-seed%d", w.name, o.seed))
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return r.rec, err
	}
	if err := os.WriteFile(base+".cpu.pprof", prof.Bytes(), 0o644); err != nil {
		return r.rec, err
	}
	return r.rec, r.spans.write(base+".spans.json", provenance(o, r.rec))
}

func cpuSeconds(ru syscall.Rusage) float64 {
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}

// repMain is a child process: one repetition, its record on stdout.
func repMain(args []string, stdout, stderr io.Writer) int {
	runtime.GOMAXPROCS(gomaxprocs)
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	w, _ := lookupWorkload(o.workload)
	rec, err := runRep(w, o, pinsFor(w, o.seed, o.small))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(rec); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// spawnRep runs one repetition in a child process, so each one starts
// from a fresh heap and reports its own peak RSS.
func spawnRep(ctx context.Context, o options, traced bool, stderr io.Writer) (repRecord, time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return repRecord{}, 0, err
	}
	var out bytes.Buffer
	cmd := exec.CommandContext(ctx, exe, o.args(traced)...)
	cmd.Env = append(os.Environ(), repEnv+"=1")
	cmd.Stdout, cmd.Stderr = &out, stderr
	t0 := time.Now()
	err = cmd.Run()
	d := time.Since(t0)
	if err != nil {
		return repRecord{}, d, fmt.Errorf("repetition: %w", err)
	}
	var rec repRecord
	if err := json.Unmarshal(out.Bytes(), &rec); err != nil {
		return repRecord{}, d, fmt.Errorf("repetition output: %w", err)
	}
	return rec, d, nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// benchMain runs repetitions until --seconds is spent and prints the
// provenance line and the result line.
func benchMain(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	res, recs := bench(o, stderr)
	var last repRecord
	if len(recs) > 0 {
		last = recs[len(recs)-1]
	}
	prov, err := json.Marshal(map[string]any{"provenance": provenance(o, last)})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", prov, line)
	return 0
}

// bench runs untraced repetitions while the next one is expected to
// end within half a repetition of the time budget (keeping room for
// one traced repetition under --trace 1) and reduces them to the
// result. A repetition whose process fails, or outlives the run's
// deadline, counts all its operations as failed.
func bench(o options, stderr io.Writer) (result, []repRecord) {
	start := time.Now()
	budget := time.Duration(o.seconds * float64(time.Second))
	ctx, cancel := context.WithTimeout(context.Background(), max(5*budget, 2*time.Minute))
	defer cancel()
	var recs []repRecord
	res := result{Metrics: map[string]metric{}}
	opsPerRep := 1
	addFailure := func(err error) {
		fmt.Fprintln(stderr, "perfbench:", err)
		res.Attempted += opsPerRep
		res.Failed += opsPerRep
	}
	for {
		rec, d, err := spawnRep(ctx, o, false, stderr)
		if err != nil {
			addFailure(err)
		} else {
			opsPerRep = rec.Attempted
			fmt.Fprintf(stderr, "perfbench: rep %d: wall %.4fs setup %.5fs run %.4fs cpu %.4fs\n",
				len(recs)+1, rec.WallS, rec.SetupS, rec.RunS, rec.CPUS)
			res.Attempted += rec.Attempted
			res.Failed += rec.Failed
			for _, f := range rec.Failures {
				fmt.Fprintln(stderr, "perfbench: failed:", f)
			}
			recs = append(recs, rec)
		}
		next := d / 2
		if o.trace {
			next += d + d/5 // the traced repetition runs slower
		}
		if time.Since(start)+next > budget || ctx.Err() != nil {
			break
		}
	}
	if len(recs) == 0 {
		return res, nil
	}
	col := func(f func(repRecord) float64) float64 {
		xs := make([]float64, len(recs))
		for i, r := range recs {
			xs[i] = f(r)
		}
		return median(xs)
	}
	if !o.trace {
		res.Metrics["wall_s"] = metric{col(func(r repRecord) float64 { return r.WallS }), "s"}
		res.Metrics["setup_s"] = metric{col(func(r repRecord) float64 { return r.SetupS }), "s"}
		res.Metrics["sim_node_cycles_per_s"] = metric{col(func(r repRecord) float64 { return r.NodeCycles / r.RunS }), "1/s"}
		res.Metrics["cpu_s"] = metric{col(func(r repRecord) float64 { return r.CPUS }), "s"}
		res.Metrics["peak_rss_mb"] = metric{col(func(r repRecord) float64 { return r.PeakRSSMB }), "MB"}
		res.Metrics["alloc_mb"] = metric{col(func(r repRecord) float64 { return r.AllocMB }), "MB"}
		res.Correct = res.Failed == 0
		return res, recs
	}
	traced, _, err := spawnRep(ctx, o, true, stderr)
	if err != nil {
		addFailure(err)
		return res, recs
	}
	res.Attempted += traced.Attempted
	res.Failed += traced.Failed
	res.Correct = res.Failed == 0
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{traced.Layers[m.name], m.unit}
	}
	untraced := col(func(r repRecord) float64 { return r.WallS })
	res.Metrics["bench.profile_overhead_pct"] = metric{(traced.WallS/untraced - 1) * 100, "%"}
	return res, append(recs, traced)
}

// provenance says how a result was produced.
func provenance(o options, rec repRecord) map[string]any {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	return map[string]any{
		"git_revision":  rev,
		"source_sha256": sourceDigest(),
		"go_version":    runtime.Version(),
		"gomaxprocs":    rec.GOMAXPROCS,
		"nproc":         runtime.NumCPU(),
		"workload":      o.workload,
		"seed":          o.seed,
		"configs":       rec.Configs,
	}
}

// sourceDigest hashes the Go sources and module files under the
// working directory, naming the code measured when it is not a git
// checkout.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
