// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload — oneshot, session, serve or cluster — for a fixed
// time, checks every output, and prints the end-to-end metrics (or,
// with --trace 1, the per-layer metrics of a separately traced run) as
// one JSON object on the last line of standard output. See README.md.
//
// Usage:
//
//	perfbench --workload oneshot --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"spampsm/internal/cluster"
)

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	spans    string // where the traced run writes its spans
	record   bool   // print the workload's output fingerprint instead of measuring
}

func (c *config) budget() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// workloads maps a workload name to the function that runs it.
var workloads = map[string]func(*config) (*outcome, error){
	"oneshot": runOneshot,
	"session": runSession,
	"serve":   runServe,
	"cluster": runCluster,
}

func main() {
	// The cluster workload re-executes this binary as its worker
	// processes; in a worker, MaybeWorker serves and exits.
	cluster.MaybeWorker()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	c := &config{}
	fs.StringVar(&c.workload, "workload", "oneshot", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&c.seed, "seed", 1, "workload seed: scenes, churn, arrivals and fresh scenes derive from it")
	fs.Float64Var(&c.seconds, "seconds", 20, "measured time per run, in seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	fs.StringVar(&c.spans, "spans", "", "span output of the traced run (default .bench_build/spans/<workload>-<seed>.jsonl)")
	fs.BoolVar(&c.record, "record-fingerprint", false, "print the workload's output fingerprint for fingerprints.json and exit")
	loadgen := fs.String("loadgen", "", "internal: act as the serve workload's load generator against this base URL")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[c.workload]
	if !ok || c.seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload %s, --seconds > 0, --trace 0|1\n",
			strings.Join(workloadNames(), "|"))
		return 2
	}
	c.trace = *traceFlag == 1
	if c.spans == "" {
		c.spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", c.workload, c.seed))
	}
	runtime.GOMAXPROCS(maxProcs)
	if *loadgen != "" {
		if err := runLoadgen(c, *loadgen, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench: load generator:", err)
			return 1
		}
		return 0
	}

	o, err := drive(c)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if c.record {
		b, _ := json.MarshalIndent(o.print, "", "  ")
		fmt.Fprintf(stdout, "%s\n", b)
		return 0
	}
	if c.trace && o.rec != nil {
		if err := o.rec.write(c.spans); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	o.report(stdout, c)
	if !o.correct {
		return 1
	}
	return 0
}

// maxProcs is the host parallelism the benchmark is calibrated for: two
// CPUs, one per task worker.
const maxProcs = 2

func workloadNames() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// outcome is one run's result.
type outcome struct {
	correct   bool
	attempted int
	failed    int
	setups    int // set-ups behind setup_s
	e2e       map[string]float64
	layer     map[string]float64
	lines     []string // human-readable report under the workload-specific names
	rec       *recorder
	print     map[string][]phasePrint // output fingerprint (see fingerprint.go)
}

func newOutcome() *outcome {
	return &outcome{correct: true, e2e: map[string]float64{}, layer: map[string]float64{}}
}

// mismatch records an output that differs from its reference.
func (o *outcome) mismatch(format string, args ...any) {
	o.correct = false
	fmt.Fprintf(os.Stderr, "perfbench: output mismatch: "+format+"\n", args...)
}

// line adds one human-readable report line.
func (o *outcome) line(format string, args ...any) {
	o.lines = append(o.lines, fmt.Sprintf(format, args...))
}

// timing adds the report lines of one latency sample: median, and the
// highest percentile with at least minBeyond samples beyond it.
func (o *outcome) timing(name, unit string, xs []float64) {
	o.line("%-22s %12.4f %-5s median of %d", name, median(xs), unit, len(xs))
	if p, ok := tailPercentile(len(xs)); ok {
		o.line("%-22s %12.4f %-5s p%g, %d samples beyond", name, percentile(xs, p), unit, p, len(xs)-1-rank(len(xs), p))
	} else {
		o.line("%-22s %12s %-5s no percentile has %d samples beyond it", name, "-", unit, minBeyond)
	}
}

// opLog accumulates a workload's timed operations.
type opLog struct {
	lat       []float64 // ms, successful operations
	timed     time.Duration
	within    int // successful operations within the latency limit
	attempted int
	failed    int
	allocs    uint64 // heap bytes allocated by timed operations
}

// done records one timed operation.
func (l *opLog) done(d time.Duration, ok bool, limit time.Duration) {
	l.attempted++
	if !ok {
		l.failed++
		return
	}
	l.lat = append(l.lat, float64(d)/float64(time.Millisecond))
	if d <= limit {
		l.within++
	}
}

// finish fills the end-to-end metrics shared by every workload.
func (o *outcome) finish(setup []float64, l *opLog) {
	o.attempted += l.attempted
	o.failed += l.failed
	o.setups = len(setup)
	o.e2e["setup_s"] = median(setup)
	o.e2e["latency_p50_ms"] = median(l.lat)
	o.e2e["goodput_rps"] = ratio(float64(l.within), l.timed.Seconds())
	o.e2e["alloc_mb_per_op"] = ratio(float64(l.allocs), float64(l.attempted)) / 1e6
	o.e2e["retained_heap_mb"] = float64(liveHeap()) / 1e6
	o.layer["error_rate"] = ratio(float64(o.failed), float64(o.attempted))
	o.layer["latency_p90_ms"] = percentile(l.lat, 90)
}

// report prints the human-readable lines, then the result object as the
// last line.
func (o *outcome) report(w io.Writer, c *config) {
	fmt.Fprintf(w, "perfbench %s seed %d trace %v: %d operations attempted, %d failed, outputs correct: %v\n",
		c.workload, c.seed, c.trace, o.attempted, o.failed, o.correct)
	for _, l := range o.lines {
		fmt.Fprintln(w, "  "+l)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, vals := endToEnd, o.e2e
	if c.trace {
		defs, vals = perLayer, o.layer
	}
	ms := map[string]jm{}
	for _, d := range defs {
		v := vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		ms[d.Name] = jm{v, d.Unit}
	}
	attempted := o.attempted
	if attempted < 1 {
		attempted = 1
	}
	b, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{o.correct, attempted, o.failed, ms})
	fmt.Fprintf(w, "%s\n", b)
}

// heapAllocs reads the cumulative heap allocation counter without
// stopping the world.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// liveHeap is the heap in use after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// subSeed derives an independent seed for one use of the workload seed
// (a scene, a churn step, an arrival schedule) by splitmix64.
func subSeed(seed uint64, tag string, i int) uint64 {
	h := uint64(14695981039346656037)
	for j := 0; j < len(tag); j++ {
		h ^= uint64(tag[j])
		h *= 1099511628211
	}
	x := seed ^ h ^ uint64(i)*0x9e3779b97f4a7c15
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// repeat runs f n times and returns each run's wall time in seconds.
func repeat(n int, f func() error) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0).Seconds())
	}
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
