package main

import (
	"context"
	"math/rand"
	"time"

	"orchestra"
)

// dag-churn: pull-only batch maintenance at paper scale. One System on
// the in-memory bus, no push, no disk, no HTTP: maintenance is bound by
// CPU and memory in the engine, Skolem and value work and the provenance
// deletion cascade.
//
// The DAG (generator seed 4) has 7 peers and 21 mappings with high
// fan-out; a string entry derives about 170 tuples in each of the seven
// views, which makes the deletion cascade nearly all of a deletion round
// (see the FOUND note in README.md) while a round still lasts well under
// a second, so a run holds dozens of cycles.
var dagChurnCfg = orchestra.WorkloadConfig{
	Peers:        7,
	Dataset:      orchestra.DatasetString,
	Topology:     orchestra.TopologyRandom,
	AvgNeighbors: 3,
	Seed:         4,
}

const (
	dcBase = 10 // entries per peer before the timed phases
	// dcCycles is the number of timed churn cycles in a 30-second run (see
	// run.scaled).
	dcCycles = 50
	// dcWindows is how many windows the per-publication samples are split
	// into (see windowed).
	dcWindows = 8
)

func dagChurnBuild(ctx context.Context, r *run) (*confed, time.Duration, error) {
	w, err := newWorld(dagChurnCfg, r.seed)
	if err != nil {
		return nil, 0, err
	}
	c := &confed{w: w}
	mem := orchestra.NewMemoryBus()
	c.bus = mem
	var bus orchestra.PublicationBus = mem
	opts := []orchestra.Option{}
	if r.trace {
		c.probe = newBusProbe()
		bus = tracedBus{inner: mem, p: c.probe}
		c.obs = orchestra.NewObservability(1 << 16)
		opts = append(opts, orchestra.WithObservability(c.obs))
	}
	if c.sys, err = orchestra.New(w.spec, append(opts, orchestra.WithBus(bus))...); err != nil {
		return nil, 0, err
	}
	for _, p := range w.peers {
		if err := c.sys.Publish(ctx, p, w.insert(p, dcBase)); err != nil {
			return nil, 0, err
		}
		c.pubs++
	}
	start := time.Now()
	if _, err := c.sys.ExchangeAll(ctx); err != nil {
		return nil, 0, err
	}
	return c, time.Since(start), nil
}

// churnStats are the samples of the churn cycles.
type churnStats struct {
	fresh, publish, query []time.Duration
	// ins and del are the insertion and deletion round times.
	ins, del []time.Duration
}

// round publishes one log per peer, then runs one ExchangeAll; every
// publication's freshness runs from the start of its Publish call to the
// end of the exchange.
func (c *confed) round(ctx context.Context, r *run, st *churnStats, record bool, gen func(peer string) orchestra.EditLog) time.Duration {
	start := time.Now()
	var starts []time.Time
	for _, p := range c.w.peers {
		s := time.Now()
		took, err := timedPublish(ctx, c.sys, p, gen(p))
		r.op(opPublish, err)
		if err != nil {
			continue
		}
		c.pubs++
		starts = append(starts, s)
		if record {
			st.publish = append(st.publish, took)
		}
	}
	_, err := c.sys.ExchangeAll(ctx)
	end := time.Now()
	if err == nil && minCursor(c.sys, c.w.peers) != c.pubs {
		err = errTimeout
	}
	for _, s := range starts {
		r.op(opVisible, err)
		if record {
			st.fresh = append(st.fresh, end.Sub(s))
		}
	}
	return end.Sub(start)
}

// cycle is two insertion rounds (one new entry per peer each) and one
// deletion round (one publication per peer retracting two random live
// entries), so the state stays the same size however long the run. Then
// the quiescent last view of the DAG, the largest, answers the same reads
// every cycle: each of its shared-attribute joins and as many point
// probes on live keys.
func (c *confed) cycle(ctx context.Context, r *run, st *churnStats, rng *rand.Rand, record bool) {
	for i := 0; i < 2; i++ {
		d := c.round(ctx, r, st, record, func(p string) orchestra.EditLog { return c.w.insert(p, 1) })
		if record {
			st.ins = append(st.ins, d)
		}
	}
	d := c.round(ctx, r, st, record, func(p string) orchestra.EditLog { return c.w.remove(p, 2) })
	if record {
		st.del = append(st.del, d)
	}
	owner := c.w.peers[len(c.w.peers)-1]
	qs := c.w.joinQueries(owner)
	for range len(qs) {
		j := c.w.peers[rng.Intn(len(c.w.peers))]
		if key, ok := c.w.randomLiveKey(rng, j); ok {
			qs = append(qs, c.w.pointQuery(owner, j, key))
		}
	}
	for _, q := range qs {
		start := time.Now()
		_, err := c.sys.Query(ctx, q.owner, q.text, false)
		took := time.Since(start)
		r.op(opQuery, err)
		if record {
			st.query = append(st.query, took)
		}
	}
}

func dagChurn(r *run) error {
	ctx := context.Background()
	c, err := buildReps(ctx, r, dagChurnBuild, func(*confed) {})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.seed))
	var st churnStats
	c.cycle(ctx, r, &st, rng, false)
	settle()

	from := time.Now()
	before := snapProc()
	var reg0 map[string]float64
	if c.obs != nil {
		reg0 = promCounters(c.obs)
		c.probe.reset()
	}
	h0, m0 := cacheStats(c.sys, c.w.peers)
	for range r.scaled(dcCycles) {
		c.cycle(ctx, r, &st, rng, true)
	}
	to := time.Now()
	r.logf("timed cycles took %v", to.Sub(from))
	after := snapProc()
	h1, m1 := cacheStats(c.sys, c.w.peers)
	heap := liveHeap()
	rows := viewRows(c.sys, c.w.peers)

	open, catchup, recovery := finalChecks(ctx, r, c.w, c.sys, c.bus, rng)
	r.set("freshness_p50_ms", ms(windowed(st.fresh, dcWindows, 0.5)), "ms")
	r.set("freshness_p90_ms", ms(windowed(st.fresh, dcWindows, 0.9)), "ms")
	r.info("freshness_p99_ms", ms(quantile(st.fresh, 0.99)), "ms")
	r.info("query_p99_us", us(quantile(st.query, 0.99)), "us")
	r.set("publish_p50_us", us(windowed(st.publish, dcWindows, 0.5)), "us")
	r.set("query_p50_us", us(windowed(st.query, dcWindows, 0.5)), "us")
	r.set("query_p90_us", us(windowed(st.query, dcWindows, 0.9)), "us")
	r.set("insert_pubs_per_s", medianRate(len(c.w.peers), st.ins), "1/s")
	r.set("delete_pubs_per_s", medianRate(len(c.w.peers), st.del), "1/s")
	r.set("recovery_s", secs(recovery), "s")
	r.set("live_heap_mb", float64(heap)/(1<<20), "MB")
	if !r.trace {
		return nil
	}
	r.perLayer(layerInput{
		obs: []*orchestra.Observability{c.obs}, from: from, to: to, pubs: len(c.w.peers) * (len(st.ins) + len(st.del)),
		before: before, after: after, reg0: reg0, reg1: promCounters(c.obs),
		probe: c.probe, publish: st.publish, queryCalls: st.query,
		open: open, catchup: catchup, rows: rows, heap: heap,
		qcHits: h1 - h0, qcMisses: m1 - m0,
	})
	return nil
}
