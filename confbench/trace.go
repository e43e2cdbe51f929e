package main

import (
	"bufio"
	"bytes"
	"context"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	"orchestra"
)

// Tracing is done from the benchmark's own files: decorators around the
// bus and the BusServer handler time the calls into those layers, and the
// rest comes from what the public API already reports (pass traces,
// counters, checkpoint manifests, runtime statistics). Nothing is added
// inside the program, so the per-layer figures need no program change.

// busProbe collects bus-layer timings shared by every tracedBus of one
// confederation. Global positions are counted from the first append on a
// fresh bus, which holds because each workload builds its own bus.
type busProbe struct {
	mu        sync.Mutex
	appends   int
	appendDur []time.Duration
	appendAt  map[int]time.Time
	deliverAt map[int]time.Time
	fetchDur  []time.Duration
	handler   []time.Duration
}

func newBusProbe() *busProbe {
	return &busProbe{appendAt: make(map[int]time.Time), deliverAt: make(map[int]time.Time)}
}

// reset forgets everything recorded so far, keeping the append count
// that maps appends to global positions.
func (p *busProbe) reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.appendDur, p.fetchDur, p.handler = nil, nil, nil
	p.appendAt = make(map[int]time.Time)
	p.deliverAt = make(map[int]time.Time)
}

// tracedBus times Append, Fetch and subscription delivery of the bus it
// wraps. It always offers Subscribe; the buses the workloads wrap (the
// in-memory bus and the HTTP bus) both support it.
type tracedBus struct {
	inner orchestra.PublicationBus
	p     *busProbe
}

func (b tracedBus) Append(ctx context.Context, peer string, log orchestra.EditLog) error {
	start := time.Now()
	err := b.inner.Append(ctx, peer, log)
	end := time.Now()
	b.p.mu.Lock()
	defer b.p.mu.Unlock()
	if err == nil {
		b.p.appends++
		b.p.appendAt[b.p.appends] = end
		b.p.appendDur = append(b.p.appendDur, end.Sub(start))
	}
	return err
}

func (b tracedBus) Fetch(ctx context.Context, from orchestra.Cursor) ([]orchestra.Delta, orchestra.Cursor, error) {
	start := time.Now()
	ds, c, err := b.inner.Fetch(ctx, from)
	d := time.Since(start)
	b.p.mu.Lock()
	b.p.fetchDur = append(b.p.fetchDur, d)
	b.p.mu.Unlock()
	return ds, c, err
}

func (b tracedBus) Horizon(ctx context.Context) (orchestra.Cursor, error) {
	return b.inner.Horizon(ctx)
}

// Subscribe relays the inner subscription, stamping when each global
// position first arrives.
func (b tracedBus) Subscribe(ctx context.Context, from orchestra.Cursor) (<-chan orchestra.Delta, orchestra.CancelFunc, error) {
	ch, cancel, err := b.inner.(orchestra.BusWatcher).Subscribe(ctx, from)
	if err != nil {
		return nil, nil, err
	}
	out := make(chan orchestra.Delta)
	stop := make(chan struct{})
	var once sync.Once
	go func() {
		defer close(out)
		pos := from.Total()
		for d := range ch {
			pos++
			now := time.Now()
			b.p.mu.Lock()
			if _, ok := b.p.deliverAt[pos]; !ok {
				b.p.deliverAt[pos] = now
			}
			b.p.mu.Unlock()
			select {
			case out <- d:
			case <-stop:
				return
			}
		}
	}()
	return out, func() {
		once.Do(func() { close(stop) })
		cancel()
	}, nil
}

// tracedHandler times the BusServer's POST /publish handling.
type tracedHandler struct {
	inner http.Handler
	p     *busProbe
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost || r.URL.Path != "/publish" {
		h.inner.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	h.inner.ServeHTTP(w, r)
	d := time.Since(start)
	h.p.mu.Lock()
	h.p.handler = append(h.p.handler, d)
	h.p.mu.Unlock()
}

// busFigures summarises the probe: median append, median delivery delay
// (append return to subscription receipt), median fetch, fetch calls,
// and median publish-handler time.
func (p *busProbe) figures() (appendD, deliver, fetch time.Duration, fetchCalls int, handler time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var delays []time.Duration
	for pos, at := range p.appendAt {
		if got, ok := p.deliverAt[pos]; ok {
			delays = append(delays, got.Sub(at))
		}
	}
	return median(append([]time.Duration(nil), p.appendDur...)), median(delays),
		median(append([]time.Duration(nil), p.fetchDur...)), len(p.fetchDur),
		median(append([]time.Duration(nil), p.handler...))
}

// passTotals sums the pass traces a System recorded inside a window.
type passTotals struct {
	passes                              int
	passWall, viewWall                  int64
	netEffect, del, ins, engine, ckpt   int64
	ckpts                               int
	editsIn, editsCancelled             int
	probes, fires, derived              int
	tuplesDeleted, provDeleted, checked int
	rederived                           int
}

// sumPasses totals every pass of the systems behind obs that started in
// [from, to] and consumed at least one publication.
func sumPasses(obs []*orchestra.Observability, from, to time.Time) passTotals {
	var t passTotals
	var passes []*orchestra.ExchangeTrace
	for _, o := range obs {
		passes = append(passes, o.Tracer().Last(int(o.Tracer().Count()))...)
	}
	for _, p := range passes {
		if p.Start.Before(from) || p.Start.After(to) {
			continue
		}
		consumed := 0
		for _, v := range p.Views {
			consumed += v.Publications
		}
		if consumed == 0 {
			continue
		}
		t.passes++
		t.passWall += p.WallNS
		for _, v := range p.Views {
			t.viewWall += v.WallNS
			t.netEffect += v.NetEffectNS
			t.del += v.DeleteNS
			t.ins += v.InsertNS
			t.engine += v.EngineNS
			if v.CheckpointNS > 0 {
				t.ckpts++
				t.ckpt += v.CheckpointNS
			}
			t.editsIn += v.EditsIn
			t.editsCancelled += v.EditsCancelled
			t.probes += v.Probes
			t.fires += v.RuleFires
			t.derived += v.Derived
			t.tuplesDeleted += v.TuplesDeleted
			t.provDeleted += v.ProvRowsDeleted
			t.checked += v.Checked
			t.rederived += v.Rederived
		}
	}
	return t
}

// promCounters reads the unlabelled samples of o's registry.
func promCounters(o *orchestra.Observability) map[string]float64 {
	var buf bytes.Buffer
	out := make(map[string]float64)
	if err := o.Registry().WritePrometheus(&buf); err != nil {
		return out
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.Contains(name, "{") {
			continue
		}
		if f, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = f
		}
	}
	return out
}

// addCounters adds every counter of src to dst.
func addCounters(dst, src map[string]float64) {
	for k, v := range src {
		dst[k] += v
	}
}

// procSnap is a point-in-time reading of process-wide counters.
type procSnap struct {
	totalAlloc, mallocs uint64
	gcCPU, allCPU       float64
	writeBytes          int64
}

func snapProc() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	s := procSnap{totalAlloc: ms.TotalAlloc, mallocs: ms.Mallocs, writeBytes: writeBytes()}
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		s.allCPU = samples[1].Value.Float64()
	}
	return s
}

// writeBytes reads the storage write_bytes counter of /proc/self/io (0
// where the kernel does not expose it).
func writeBytes() int64 {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "write_bytes: "); ok {
			n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			return n
		}
	}
	return 0
}

// liveHeap forces a GC and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// layerInput is what a workload hands the per-layer report.
type layerInput struct {
	obs        []*orchestra.Observability // systems whose passes count
	from, to   time.Time                  // the timed window
	pubs       int                        // publications published in the window
	before     procSnap
	after      procSnap
	reg0, reg1 map[string]float64 // registry counters at the window's start and end
	probe      *busProbe
	publish    []time.Duration // System.Publish call times
	queryCalls []time.Duration // System.Query call times
	open       time.Duration   // open part of the recovery measurement
	catchup    time.Duration   // catch-up part of the recovery measurement
	logBytes   int64           // growth of the durable bus log in the window
	snapBytes  int64           // total snapshot bytes at the end (statestore)
	rows       int             // rows over every view at the end
	heap       uint64          // live heap at the end
	qcHits     uint64
	qcMisses   uint64
}

// perLayer fills every per-layer metric. A layer a workload does not use
// reports 0 (see README.md for which apply where).
func (r *run) perLayer(in layerInput) {
	t := sumPasses(in.obs, in.from, in.to)
	pubs := float64(max(in.pubs, 1))
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	nsPer := func(ns int64) float64 { return float64(ns) / 1e6 / pubs }

	r.set("orchestra.publish_us", us(median(in.publish)), "us")
	r.set("orchestra.pass_ms", ratio(float64(t.passWall)/1e6, float64(t.passes)), "ms")
	r.set("orchestra.passes_per_pub", float64(t.passes)/pubs, "count")
	r.set("orchestra.query_call_us", us(median(in.queryCalls)), "us")
	r.set("orchestra.open_s", secs(in.open), "s")
	r.set("orchestra.catchup_s", secs(in.catchup), "s")

	var appendD, deliver, fetch, handler time.Duration
	fetchCalls := 0
	if in.probe != nil {
		appendD, deliver, fetch, fetchCalls, handler = in.probe.figures()
	}
	r.set("bus.append_us", us(appendD), "us")
	r.set("bus.deliver_ms", ms(deliver), "ms")
	r.set("bus.fetch_ms", ms(fetch), "ms")
	r.set("bus.fetch_calls_per_pub", float64(fetchCalls)/pubs, "count")
	r.set("share.publish_handler_us", us(handler), "us")

	r.set("logstore.bytes_per_pub", float64(in.logBytes)/pubs, "bytes")
	r.set("statestore.checkpoints_per_pub", float64(t.ckpts)/pubs, "count")
	r.set("statestore.checkpoint_ms", ratio(float64(t.ckpt)/1e6, float64(t.ckpts)), "ms")
	r.set("statestore.checkpoint_share", ratio(float64(t.ckpt), float64(t.viewWall)), "ratio")
	r.set("statestore.snapshot_mb", float64(in.snapBytes)/(1<<20), "MB")
	r.set("disk.write_kb_per_pub", float64(in.after.writeBytes-in.before.writeBytes)/1024/pubs, "KB")

	r.set("core.net_effect_ms_per_pub", nsPer(t.netEffect), "ms")
	r.set("core.delete_ms_per_pub", nsPer(t.del), "ms")
	r.set("core.delete_share", ratio(float64(t.del), float64(t.viewWall)), "ratio")
	r.set("core.insert_ms_per_pub", nsPer(t.ins), "ms")
	pushed := in.reg1["orchestra_exchange_push_deltas_total"] - in.reg0["orchestra_exchange_push_deltas_total"]
	consumed := in.reg1["orchestra_exchange_publications_total"] - in.reg0["orchestra_exchange_publications_total"]
	r.set("core.push_share", ratio(pushed, consumed), "ratio")
	r.set("core.edits_cancelled_share", ratio(float64(t.editsCancelled), float64(t.editsIn)), "ratio")
	r.set("core.query_cache_hit_share", ratio(float64(in.qcHits), float64(in.qcHits+in.qcMisses)), "ratio")

	r.set("engine.probes_per_pub", float64(t.probes)/pubs, "count")
	r.set("engine.rule_fires_per_pub", float64(t.fires)/pubs, "count")
	r.set("engine.derived_per_pub", float64(t.derived)/pubs, "count")
	r.set("engine.eval_ms_per_pub", nsPer(t.engine), "ms")

	r.set("provenance.tuples_deleted_per_pub", float64(t.tuplesDeleted)/pubs, "count")
	r.set("provenance.prov_rows_deleted_per_pub", float64(t.provDeleted)/pubs, "count")
	r.set("provenance.checked_per_pub", float64(t.checked)/pubs, "count")
	r.set("provenance.rederived_per_pub", float64(t.rederived)/pubs, "count")

	r.set("exchange.parallel_speedup", ratio(float64(t.viewWall), float64(t.passWall)), "ratio")

	r.set("runtime.alloc_mb_per_pub", float64(in.after.totalAlloc-in.before.totalAlloc)/(1<<20)/pubs, "MB")
	r.set("runtime.allocs_per_pub", float64(in.after.mallocs-in.before.mallocs)/pubs, "count")
	r.set("runtime.gc_cpu_share", ratio(in.after.gcCPU-in.before.gcCPU, in.after.allCPU-in.before.allCPU), "ratio")
	r.set("storage.rows", float64(in.rows), "count")
	r.set("storage.heap_bytes_per_row", ratio(float64(in.heap), float64(in.rows)), "bytes")
}
