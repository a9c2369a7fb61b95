// Command perfbench is the repository's end-to-end benchmark. It drives the
// co-estimator only through its public entry points (pkg/coest, the
// coestd/coest-router HTTP servers and the coestapi wire types), checks
// every estimate it makes, and prints one JSON result line.
//
//	go run . --workload tables --seed 1 --seconds 20 --trace 0
//
// Run it from the repository root; run.sh builds and runs it there. See
// README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

const (
	// A run sets up at least minSetups times and until minSetupTime is
	// spent, so a setup of a few tens of milliseconds is sampled often
	// enough for a steady median; setup_s is the median.
	minSetups    = 5
	minSetupTime = 2 * time.Second
	// maxLoggedSpans bounds the spans a traced run keeps for writing out.
	maxLoggedSpans = 200_000
	// outDir holds the traced runs' span files, relative to the root.
	outDir = ".bench_build/spans"
)

// endToEnd and perLayer list every metric a run reports, with its unit:
// end-to-end ones without --trace, per-layer ones with it. A layer a
// workload does not cross reports 0.
var endToEnd = [][2]string{
	{"setup_s", "s"},
	{"cells_per_s", "1/s"},
	{"goodput_rps", "1/s"},
	{"energy_err_pct", "%"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_tail", "ms"},
	{"rss_peak_mb", "MiB"},
}

var perLayer = [][2]string{
	{"coest.compile_ms", "ms"}, {"coest.estimate_ms", "ms"},
	{"gate.busy_ms", "ms"}, {"gate.cycles", "count"}, {"gate.evals", "count"},
	{"gate.evals_per_cycle", "ratio"}, {"gate.ns_per_cycle", "ns"}, {"hwsyn.execs", "count"},
	{"iss.busy_ms", "ms"}, {"iss.calls", "count"}, {"iss.insts", "count"}, {"iss.ns_per_inst", "ns"},
	{"cachesim.accesses", "count"}, {"cachesim.hit_ratio", "ratio"},
	{"rtos.dispatches", "count"}, {"bus.grants", "count"}, {"bus.words", "count"},
	{"core.other_ms", "ms"},
	{"ecache.lookups", "count"}, {"ecache.hit_ratio", "ratio"}, {"compact.dispatch_ratio", "ratio"},
	{"engine.point_ms", "ms"},
	{"serve.admission_ms", "ms"}, {"serve.session_ms", "ms"}, {"serve.sweep_ms", "ms"},
	{"serve.respond_ms", "ms"}, {"serve.request_ms", "ms"}, {"serve.warm_ratio", "ratio"},
	{"serve.degraded_frac", "ratio"},
	{"router.hop_ms", "ms"}, {"router.retries", "count"}, {"router.hedges", "count"}, {"router.failovers", "count"},
	{"ecachesync.syncs", "count"}, {"ecachesync.sync_ms", "ms"},
	{"ecachesync.paths_pushed", "count"}, {"ecachesync.paths_pulled", "count"},
	{"loadgen.lag_ms_tail", "ms"},
	{"trace.overhead_pct", "%"}, {"trace.reconcile_pct", "%"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

// set records a metric; the name must be in the run's catalog.
func (m metrics) set(name string, v float64) {
	cur, ok := m[name]
	if !ok {
		panic(fmt.Sprintf("perfbench: metric %q is not in the catalog", name))
	}
	m[name] = metric{Value: v, Unit: cur.Unit}
}

func catalog(list [][2]string) metrics {
	m := metrics{}
	for _, e := range list {
		m[e[0]] = metric{Unit: e[1]}
	}
	return m
}

// result is one run's outcome. Notes go to standard error.
type result struct {
	attempted, failed int
	m                 metrics
	notes             []string
	tail              string
}

func newResult() *result { return &result{m: catalog(endToEnd)} }

func (r *result) set(name string, v float64) { r.m.set(name, v) }

// layers switches the result to the per-layer catalog of a traced run.
func (r *result) layers() metrics {
	r.m = catalog(perLayer)
	return r.m
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) tailNote(p float64, n int) {
	r.tail = fmt.Sprintf("latency tail is p%g of %d samples", p, n)
}

// moreSetups reports whether a run that has set up done times, spending
// spent, sets up again.
func moreSetups(done int, spent time.Duration) bool {
	return done < minSetups || spent < minSetupTime
}

type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

// writeSpans stores a traced run's spans under outDir.
func (rc runConfig) writeSpans(l *spanLog) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", rc.workload, rc.seed))
	if l.dropped > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d spans beyond the %d kept were not written\n", l.dropped, l.max)
	}
	return l.write(path)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "tables, sw-partition or fleet")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "measured run length in seconds")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	rc := runConfig{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}

	ctx := context.Background()
	var res *result
	var err error
	switch rc.workload {
	case "tables":
		res, err = runLibrary(ctx, tablesWorkload, rc)
	case "sw-partition":
		res, err = runLibrary(ctx, swPartitionWorkload, rc)
	case "fleet":
		res, err = runFleet(ctx, rc)
	default:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want tables, sw-partition or fleet)\n", rc.workload)
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", rc.workload, err)
		return 1
	}
	for _, n := range res.notes {
		fmt.Fprintf(stderr, "perfbench: %s\n", n)
	}
	enc := json.NewEncoder(stdout)
	prov := provenance(rc)
	if res.tail != "" {
		prov["tail"] = res.tail
	}
	if err := enc.Encode(map[string]any{"provenance": prov}); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := enc.Encode(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, res.m}); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}
