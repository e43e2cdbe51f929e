// Command confbench is the repository's end-to-end benchmark: it drives a
// confederation through the public orchestra package and the HTTP wire
// protocol only, checks every output against an oracle computed apart
// from the program, and prints one JSON result line.
//
//	bash confbench/run.sh --workload dag-churn --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics of a traced run of the same workload
// (see README.md for the definitions and the map between the two).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state one workload run accumulates: metrics, per-type
// operation accounting, and the correctness verdict.
type run struct {
	seed    int64
	seconds float64
	trace   bool
	metrics map[string]metric
	extra   map[string]metric
	ops     map[string]*opCount
	correct bool
	// dir is the run's scratch directory inside the checkout (created on
	// first use, removed at exit).
	dir string
}

type opCount struct{ attempted, failed int }

// Operation types counted in the result's attempted/failed totals.
const (
	opPublish = "publish"
	opQuery   = "query"
	opVisible = "visibility_wait"
	opRecover = "recovery"
	opOracle  = "oracle_check"
)

func (r *run) op(kind string, err error) {
	c := r.ops[kind]
	if c == nil {
		c = &opCount{}
		r.ops[kind] = c
	}
	c.attempted++
	if err != nil {
		c.failed++
		fmt.Fprintf(os.Stderr, "confbench: %s failed: %v\n", kind, err)
	}
}

// check records one oracle check; a failing check also clears correct.
func (r *run) check(name string, err error) {
	r.op(opOracle, err)
	if err != nil {
		r.correct = false
		fmt.Fprintf(os.Stderr, "confbench: check %s: %v\n", name, err)
	}
}

// info records a figure reported beside the result but outside it, such
// as a tail too thin to gate on.
func (r *run) info(name string, v float64, unit string) {
	r.extra[name] = metric{Value: v, Unit: unit}
}

// logf reports progress on standard error.
func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "confbench: "+format+"\n", args...)
}

func (r *run) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// endToEnd lists the metrics of an untraced run, perLayerNames those of a
// traced run; BENCHMARK.json declares the same names.
var endToEnd = []string{
	"setup_s", "freshness_p50_ms", "freshness_p90_ms", "publish_p50_us",
	"query_p50_us", "query_p90_us", "join_s", "insert_pubs_per_s",
	"delete_pubs_per_s", "recovery_s", "live_heap_mb",
}

var perLayerNames = []string{
	"orchestra.publish_us", "orchestra.pass_ms", "orchestra.passes_per_pub",
	"orchestra.query_call_us", "orchestra.open_s", "orchestra.catchup_s",
	"bus.append_us", "bus.deliver_ms", "bus.fetch_ms", "bus.fetch_calls_per_pub",
	"share.publish_handler_us", "logstore.bytes_per_pub",
	"statestore.checkpoints_per_pub", "statestore.checkpoint_ms",
	"statestore.checkpoint_share", "statestore.snapshot_mb", "disk.write_kb_per_pub",
	"core.net_effect_ms_per_pub", "core.delete_ms_per_pub", "core.delete_share", "core.insert_ms_per_pub",
	"core.push_share", "core.edits_cancelled_share", "core.query_cache_hit_share",
	"engine.probes_per_pub", "engine.rule_fires_per_pub", "engine.derived_per_pub",
	"engine.eval_ms_per_pub",
	"provenance.tuples_deleted_per_pub", "provenance.prov_rows_deleted_per_pub",
	"provenance.checked_per_pub", "provenance.rederived_per_pub",
	"exchange.parallel_speedup",
	"runtime.alloc_mb_per_pub", "runtime.allocs_per_pub", "runtime.gc_cpu_share",
	"storage.rows", "storage.heap_bytes_per_row",
}

// workloads maps each --workload name to its driver. A driver returns an
// error only for a fault that leaves no result to report (set-up failed).
var workloads = map[string]func(*run) error{
	"durable-follower": durableFollower,
	"dag-churn":        dagChurn,
}

func main() {
	name := flag.String("workload", "", "workload to run: durable-follower or dag-churn")
	seed := flag.Int64("seed", 1, "seed for the generated inputs")
	seconds := flag.Float64("seconds", 10, "measured duration of the run")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
	flag.Parse()
	drive, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "confbench: usage: --workload <%s> --seed <n> --seconds <s> --trace <0|1>\n", workloadNames())
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	r := &run{
		seed:    *seed,
		seconds: *seconds,
		trace:   *trace == 1,
		metrics: make(map[string]metric),
		extra:   make(map[string]metric),
		ops:     make(map[string]*opCount),
		correct: true,
	}
	err := drive(r)
	if r.dir != "" {
		if rerr := os.RemoveAll(r.dir); rerr != nil && err == nil {
			err = rerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "confbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	want := endToEnd
	if r.trace {
		want = perLayerNames
	}
	out := result{Correct: r.correct, Metrics: make(map[string]metric, len(want))}
	for _, n := range want {
		m, ok := r.metrics[n]
		if !ok {
			fmt.Fprintf(os.Stderr, "confbench: %s: metric %s was not measured\n", *name, n)
			os.Exit(1)
		}
		out.Metrics[n] = m
	}
	kinds := make([]string, 0, len(r.ops))
	for k := range r.ops {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		c := r.ops[k]
		out.Attempted += c.attempted
		out.Failed += c.failed
		fmt.Printf("ops %-16s attempted=%d failed=%d\n", k, c.attempted, c.failed)
	}
	for _, n := range sortedKeys(r.metrics) {
		fmt.Printf("metric %-38s %14.4f %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	for _, n := range sortedKeys(r.extra) {
		fmt.Printf("info   %-38s %14.4f %s\n", n, r.extra[n].Value, r.extra[n].Unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "confbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func sortedKeys(m map[string]metric) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	s := ""
	for i, n := range names {
		if i > 0 {
			s += "|"
		}
		s += n
	}
	return s
}

// scratchDir returns the run's scratch directory under .bench_build in
// the current directory (the checkout root), creating it on first use.
func (r *run) scratchDir() (string, error) {
	if r.dir != "" {
		return r.dir, nil
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	d, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return "", err
	}
	r.dir = d
	return d, nil
}

// ms, us and secs convert a duration to the metric units.
func ms(d time.Duration) float64   { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64   { return float64(d) / float64(time.Microsecond) }
func secs(d time.Duration) float64 { return d.Seconds() }

// quantile returns the q-quantile of ds by linear interpolation; 0 for an
// empty sample.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	ds = append([]time.Duration(nil), ds...)
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	pos := q * float64(len(ds)-1)
	lo := int(pos)
	if lo+1 >= len(ds) {
		return ds[len(ds)-1]
	}
	frac := pos - float64(lo)
	return ds[lo] + time.Duration(frac*float64(ds[lo+1]-ds[lo]))
}

// median is quantile(ds, 0.5).
func median(ds []time.Duration) time.Duration { return quantile(ds, 0.5) }

// windowed splits ds, which is in the order the samples were taken, into
// k consecutive windows and returns the median over the windows of each
// window's q-quantile. A stall of the shared machine then moves one
// window's figure instead of the whole run's tail.
func windowed(ds []time.Duration, k int, q float64) time.Duration {
	return median(perWindow(ds, k, q))
}

// perWindow splits ds, in the order the samples were taken, into k
// consecutive windows and returns each window's q-quantile.
func perWindow(ds []time.Duration, k int, q float64) []time.Duration {
	var per []time.Duration
	for i := 0; i < k; i++ {
		if w := ds[i*len(ds)/k : (i+1)*len(ds)/k]; len(w) > 0 {
			per = append(per, quantile(w, q))
		}
	}
	return per
}

// midMean returns the mean of the middle half of ds (its lowest and
// highest quarters set aside); 0 for an empty sample. Like the median it
// ignores a few stalled samples, but it varies less from run to run when
// the samples scatter within bounds, as burst times do with the number
// of passes a burst happens to take.
func midMean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	ds = append([]time.Duration(nil), ds...)
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	lo, hi := len(ds)/4, len(ds)-len(ds)/4
	var sum time.Duration
	for _, d := range ds[lo:hi] {
		sum += d
	}
	return sum / time.Duration(hi-lo)
}

// medianRate returns the median of n/d over the busy times ds.
func medianRate(n int, ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	return float64(n) / median(ds).Seconds()
}
