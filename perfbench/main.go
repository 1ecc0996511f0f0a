// Command perfbench is the repository's benchmark: TSV bytes in, SOC
// report out, plus live-listener latency under a paced soak. It runs one
// seeded workload in-process against internal/logs, internal/inputs,
// internal/stream and internal/pipeline, checks every output, and prints
// one JSON result line last.
//
// Usage (from the module root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Workloads: enterprise-replay, dga-flood, live-soak.
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// tracing off. With --trace 1 the run alternates untraced and traced passes
// (soaks, on live-soak), records a span around every call the traced ones
// make into the program, writes the spans to .bench_build/traces/, prints
// the per-layer self-time table, and reports the per-layer metrics and the
// tracing overhead. On enterprise-replay the traced run also repeats the
// workload at GOMAXPROCS=1 with one shard, the single-threaded baseline.
//
// On live-soak the frames come over TCP from a second process, this
// executable started with --soak-sender (see sender.go), which the run
// stops before it exits.
//
// The process exits 1 when an output check fails, after printing the
// result with "correct": false.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runMeta stamps a result with what it ran on.
type runMeta struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

// setupRuns is how many times a run builds its inputs; setup_s is the
// median, so that work moved into set-up shows.
const setupRuns = 5

func main() {
	workload := flag.String("workload", "", "enterprise-replay, dga-flood or live-soak")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "how long the run measures")
	trace := flag.Int("trace", 0, "1: traced run with per-layer metrics")
	soakSender := flag.Bool("soak-sender", false, "run as live-soak's frame sender (started by the benchmark itself)")
	flag.Parse()
	if *soakSender {
		if err := runSender(*seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench sender:", err)
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	meta := runMeta{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace,
		CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
	}
	b := &bench{meta: meta, traced: *trace == 1, budget: time.Duration(*seconds) * time.Second}
	var err error
	switch *workload {
	case "enterprise-replay", "dga-flood":
		err = b.runClosed()
	case "live-soak":
		err = b.runLiveSoak()
	default:
		err = fmt.Errorf("unknown workload %q", *workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if b.traced {
		if err := b.writeTraces(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			os.Exit(1)
		}
	}
	os.Exit(b.report())
}

// metrics is a result's metric set; the printed order is the insertion
// order.
type metrics struct {
	names  []string
	values map[string]metric
}

func (m *metrics) set(name string, value float64, unit string) {
	if m.values == nil {
		m.values = make(map[string]metric)
	}
	if _, ok := m.values[name]; !ok {
		m.names = append(m.names, name)
	}
	m.values[name] = metric{Value: value, Unit: unit}
}

// bench is one run: a workload, its measurements and its checks.
type bench struct {
	meta   runMeta
	traced bool
	budget time.Duration

	e2e, layer metrics
	// info is printed with the metrics but left out of the result line.
	info              metrics
	attempted, failed int
	failures          []string
	// Spans of the traced passes, and of the GOMAXPROCS=1 repeat.
	tr, tr1 *tracer
}

func (b *bench) check(attempted, failed int, failures []string) {
	b.attempted += attempted
	b.failed += failed
	b.failures = append(b.failures, failures...)
}

// report prints the metadata, every metric with its unit, and the result
// line, and returns the exit code.
func (b *bench) report() int {
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	metaJSON, _ := json.Marshal(b.meta) // a struct of strings and numbers always encodes
	fmt.Fprintf(w, "# meta %s\n", metaJSON)
	if b.traced {
		printSelfTimes(w, b.meta.Workload+" (traced passes)", b.tr.selfTimes())
		if b.tr1 != nil {
			printSelfTimes(w, b.meta.Workload+" at GOMAXPROCS=1, one shard", b.tr1.selfTimes())
		}
	}
	failedRatio := 0.0
	if b.attempted > 0 {
		failedRatio = float64(b.failed) / float64(b.attempted)
	}
	fmt.Fprintf(w, "# %-34s %18s %s\n", "metric", "value", "unit")
	for _, set := range []*metrics{&b.e2e, &b.layer, &b.info} {
		for _, n := range set.names {
			m := set.values[n]
			fmt.Fprintf(w, "# %-34s %18.6f %s\n", n, m.Value, m.Unit)
		}
	}
	fmt.Fprintf(w, "# %-34s %18.6f %s\n", "failed_ratio", failedRatio, "ratio")
	for i, f := range b.failures {
		if i == 10 {
			fmt.Fprintf(w, "# ... %d more failures\n", len(b.failures)-i)
			break
		}
		fmt.Fprintf(w, "# FAILED: %s\n", f)
	}
	res := result{Correct: b.failed == 0 && len(b.failures) == 0, Attempted: b.attempted, Failed: b.failed,
		Metrics: b.e2e.values}
	if b.traced {
		res.Metrics = b.layer.values
	}
	line, _ := json.Marshal(res) // finite floats and strings always encode
	fmt.Fprintf(w, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// writeTraces writes the spans under .bench_build/traces in the working
// directory, one JSON object per line after a metadata line.
func (b *bench) writeTraces() error {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d", b.meta.Workload, b.meta.Seed)
	if err := b.tr.writeJSONL(filepath.Join(dir, name+".jsonl"), b.meta); err != nil {
		return err
	}
	if b.tr1 != nil {
		meta := b.meta
		meta.GOMAXPROCS = 1
		return b.tr1.writeJSONL(filepath.Join(dir, name+"-gomaxprocs1.jsonl"), meta)
	}
	return nil
}

// cpuModel reads the processor's model name where the kernel reports it.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// timedSetup builds a workload's inputs setupRuns times (once in a traced
// run) into one arena and records the median time as setup_s. It returns
// the last inputs.
func timedSetup[T any](b *bench, build func(*arena) (T, error)) (T, error) {
	runs := setupRuns
	if b.traced {
		runs = 1
	}
	var in T
	var times []float64
	input := new(arena)
	for i := 0; i < runs; i++ {
		input.reset()
		// Each set-up starts from a collected heap, so that none pays for
		// the garbage of the one before.
		runtime.GC()
		start := time.Now()
		var err error
		if in, err = build(input); err != nil {
			return in, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	b.e2e.set("setup_s", median(times), "s")
	return in, nil
}
