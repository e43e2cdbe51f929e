package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"orchestra"
)

// durable-follower: the production confederation path. A BusServer
// validates against the spec, persists its log and serves over loopback
// HTTP; a publisher System and a durable, pushing follower System both
// reach it through HTTPBus. HTTP, fsync, /watch and the per-exchange
// checkpoints all sit between a publish and its visibility.
//
// The DAG (generator seed 7) has 6 peers and 12 mappings; an integer
// entry derives about 53 tuples in each view. The follower rewrites the
// snapshot of every view on every pass, so the size of the state sets how
// much a run writes to storage; with 10 base entries per peer (16 after
// the warm-up) a checkpoint stays within tens of milliseconds and the
// write volume stays low enough that runs of the same build agree.
var durableCfg = orchestra.WorkloadConfig{
	Peers:        6,
	Dataset:      orchestra.DatasetInteger,
	Topology:     orchestra.TopologyRandom,
	AvgNeighbors: 2,
	Seed:         7,
}

const (
	dfBase = 10 // entries per peer before the timed phases
	// dfWarm is the closed-loop publications of the warm-up and dfRounds
	// the timed rounds, both for a 30-second run (see run.scaled). A round
	// is dfLoop closed-loop insertions, dfPairs pairs of throughput bursts
	// of dfBurst publications each, and a quiet phase in which the
	// round's closed-loop insertions are deleted again, so every round
	// starts from a state of the same size. The quiet phase of every
	// dfRecoverEvery-th round is a recovery (the follower is closed,
	// reopened, caught up and warmed up again by dfRewarm closed-loop
	// insertions); that of the other rounds only pauses push delivery.
	dfWarm         = 36
	dfRounds       = 18
	dfLoop         = 8
	dfPairs        = 1
	dfBurst        = 15
	dfRecoverEvery = 2
	dfRewarm       = 2
	// dfJoins is how many times a new peer joins at the end of the run.
	dfJoins = 5
)

// durable holds the server side and the follower's state directory of a
// durable-follower confederation.
type durable struct {
	*confed
	pub      *orchestra.System // the publisher
	stop     func()            // stops the follower's push delivery
	srv      *orchestra.BusServer
	hs       *http.Server
	served   chan error
	url      string
	stateDir string
	logPath  string
	obsAll   []*orchestra.Observability
}

// follower opens (or reopens) the durable follower System.
func (d *durable) follower(r *run) (*orchestra.System, error) {
	var bus orchestra.PublicationBus = orchestra.NewHTTPBus(d.url)
	opts := []orchestra.Option{orchestra.WithPersistence(d.stateDir)}
	if r.trace {
		bus = tracedBus{inner: bus, p: d.probe}
		d.obs = orchestra.NewObservability(1 << 16)
		d.obsAll = append(d.obsAll, d.obs)
		opts = append(opts, orchestra.WithObservability(d.obs))
	}
	return orchestra.New(d.w.spec, append(opts, orchestra.WithBus(bus))...)
}

func durableBuild(ctx context.Context, r *run) (*durable, time.Duration, error) {
	w, err := newWorld(durableCfg, r.seed)
	if err != nil {
		return nil, 0, err
	}
	root, err := r.scratchDir()
	if err != nil {
		return nil, 0, err
	}
	dir, err := os.MkdirTemp(root, "follower-")
	if err != nil {
		return nil, 0, err
	}
	d := &durable{confed: &confed{w: w}, stateDir: filepath.Join(dir, "state"), logPath: filepath.Join(dir, "bus.log")}
	d.srv = orchestra.NewBusServer()
	d.srv.ValidateAgainst(w.spec)
	if _, err := d.srv.PersistTo(d.logPath); err != nil {
		return nil, 0, err
	}
	var handler http.Handler = d.srv
	if r.trace {
		d.probe = newBusProbe()
		handler = tracedHandler{inner: d.srv, p: d.probe}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.srv.Close()
		return nil, 0, err
	}
	d.hs = &http.Server{Handler: handler}
	d.served = make(chan error, 1)
	go func() { d.served <- d.hs.Serve(ln) }()
	d.url = "http://" + ln.Addr().String()
	d.bus = orchestra.NewHTTPBus(d.url)

	var pubBus orchestra.PublicationBus = orchestra.NewHTTPBus(d.url)
	if r.trace {
		pubBus = tracedBus{inner: pubBus, p: d.probe}
	}
	if d.pub, err = orchestra.New(w.spec, orchestra.WithBus(pubBus)); err != nil {
		d.release()
		return nil, 0, err
	}
	if d.sys, err = d.follower(r); err != nil {
		d.release()
		return nil, 0, err
	}
	for _, p := range w.peers {
		if err := d.pub.Publish(ctx, p, w.insert(p, dfBase)); err != nil {
			d.release()
			return nil, 0, err
		}
		d.pubs++
	}
	start := time.Now()
	if _, err := d.sys.ExchangeAll(ctx); err != nil {
		d.release()
		return nil, 0, err
	}
	join := time.Since(start)
	if d.stop, err = d.sys.StartPush(ctx); err != nil {
		d.release()
		return nil, 0, err
	}
	return d, join, nil
}

// release stops the follower and the server and waits for both.
func (d *durable) release() {
	if d.stop != nil {
		d.stop()
		d.stop = nil
	}
	if d.sys != nil {
		d.sys.Close()
	}
	if d.hs != nil {
		d.hs.Close()
		<-d.served
	}
	d.srv.Close()
}

// publishWait publishes one log through the publisher and waits until
// every follower view covers it, returning the publish and visibility
// times (both from the start of the Publish call).
func (d *durable) publishWait(ctx context.Context, r *run, peer string, log orchestra.EditLog) (time.Duration, time.Duration, error) {
	start := time.Now()
	err := d.pub.Publish(ctx, peer, log)
	took := time.Since(start)
	r.op(opPublish, err)
	if err != nil {
		return took, 0, err
	}
	d.pubs++
	err = waitCovered(d.sys, d.w.peers, d.pubs)
	r.op(opVisible, err)
	return took, time.Since(start), err
}

// recover closes the follower, publishes one deletion of a random live
// entry of each peer in owed, appending each Publish call's time to
// publish, then reopens the follower and catches it up to the bus
// horizon, returning the open and catch-up times.
func (d *durable) recover(ctx context.Context, r *run, owed []string, publish *[]time.Duration) (time.Duration, time.Duration, error) {
	d.stop()
	d.stop = nil
	if err := d.sys.Close(); err != nil {
		return 0, 0, err
	}
	settle()
	if err := d.deleteOwed(ctx, r, owed, publish); err != nil {
		return 0, 0, err
	}
	settle()
	start := time.Now()
	s, err := d.follower(r)
	if err != nil {
		return 0, 0, err
	}
	d.sys = s
	opened := time.Now()
	if _, err := s.ExchangeAll(ctx); err != nil {
		return 0, 0, err
	}
	if got := minCursor(s, d.w.peers); got != d.pubs {
		return 0, 0, fmt.Errorf("recovered follower at %d of %d publications", got, d.pubs)
	}
	catchup := time.Since(opened)
	d.stop, err = s.StartPush(ctx)
	return opened.Sub(start), catchup, err
}

// deleteOwed publishes one deletion of a random live entry of each peer
// in owed, appending each Publish call's time to publish.
func (d *durable) deleteOwed(ctx context.Context, r *run, owed []string, publish *[]time.Duration) error {
	for _, p := range owed {
		took, err := timedPublish(ctx, d.pub, p, d.w.remove(p, 1))
		r.op(opPublish, err)
		if err != nil {
			return err
		}
		*publish = append(*publish, took)
		d.pubs++
	}
	return nil
}

// pause stops the follower's push delivery, publishes one deletion of a
// random live entry of each peer in owed, appending each Publish call's
// time to publish, then restarts push delivery and waits until every
// follower view covers the deletions.
func (d *durable) pause(ctx context.Context, r *run, owed []string, publish *[]time.Duration) error {
	d.stop()
	d.stop = nil
	settle()
	if err := d.deleteOwed(ctx, r, owed, publish); err != nil {
		return err
	}
	var err error
	if d.stop, err = d.sys.StartPush(ctx); err != nil {
		return err
	}
	err = waitCovered(d.sys, d.w.peers, d.pubs)
	r.op(opVisible, err)
	return err
}

// bursts runs pairs pairs of bursts: a burst of n insertions, then a burst
// of n deletions of random live entries, each published back to back
// through the publisher and waited for until every follower view covers
// it. It appends each burst's time, from the first publish to full
// visibility, to spans[0] (insertions) or spans[1] (deletions); the state
// ends the size it started.
func (d *durable) bursts(ctx context.Context, r *run, pairs, n int, spans *[2][]time.Duration, publish *[]time.Duration) {
	peers := d.w.peers
	for range pairs {
		for k, del := range []bool{false, true} {
			start := time.Now()
			for i := 0; i < n; i++ {
				p := peers[i%len(peers)]
				var log orchestra.EditLog
				if del {
					log = d.w.remove(p, 1)
				} else {
					log = d.w.insert(p, 1)
				}
				took, err := timedPublish(ctx, d.pub, p, log)
				r.op(opPublish, err)
				*publish = append(*publish, took)
				if err == nil {
					d.pubs++
				}
			}
			err := waitCovered(d.sys, peers, d.pubs)
			r.op(opVisible, err)
			spans[k] = append(spans[k], time.Since(start))
		}
	}
}

func durableFollower(r *run) error {
	ctx := context.Background()
	var d *durable
	_, err := buildReps(ctx, r, func(ctx context.Context, r *run) (*confed, time.Duration, error) {
		var join time.Duration
		var err error
		d, join, err = durableBuild(ctx, r)
		if err != nil {
			return nil, 0, err
		}
		return d.confed, join, nil
	}, func(*confed) { d.release() })
	if err != nil {
		return err
	}
	defer d.release()
	rng := rand.New(rand.NewSource(r.seed))
	peers := d.w.peers

	// closedLoop publishes n insertions one at a time, waits until each is
	// visible, then reads it back from a random view. owed lists the peers
	// it inserted into since the last quiet phase.
	var fresh, publish, query []time.Duration
	var owed []string
	closedLoop := func(n int, record bool) {
		for i := range n {
			p := peers[i%len(peers)]
			owed = append(owed, p)
			log := d.w.insert(p, 1)
			took, visible, err := d.publishWait(ctx, r, p, log)
			if err != nil {
				continue
			}
			q := d.w.pointQuery(peers[rng.Intn(len(peers))], p, log[0].Tuple[0].AsInt())
			qStart := time.Now()
			rows, err := d.sys.Query(ctx, q.owner, q.text, false)
			qTook := time.Since(qStart)
			if err == nil && len(rows) != 1 {
				err = fmt.Errorf("read of key %d returned %d rows", q.point, len(rows))
			}
			r.op(opQuery, err)
			if record {
				fresh = append(fresh, visible)
				publish = append(publish, took)
				query = append(query, qTook)
			}
		}
	}
	closedLoop(r.scaled(dfWarm), false)
	owed = nil

	// The timed phases are interleaved in rounds, so that every metric
	// samples the whole run: a stall of the shared machine then moves one
	// round's samples, which the medians over windows, bursts and
	// recoveries set aside.
	from := time.Now()
	before := snapProc()
	log0 := fileSize(d.logPath)
	pubs0 := d.pubs
	if r.trace {
		d.probe.reset()
	}
	// reg0 and reg1 sum the follower's registry counters at the start and
	// end of each closed-loop stretch, h and m its query-cache hits and
	// misses over them: each recovery starts a follower with counters of
	// its own.
	reg0, reg1 := map[string]float64{}, map[string]float64{}
	var h, m uint64
	// quiet holds the publishes made while the follower is closed or its
	// push delivery paused.
	var allPublish, quiet []time.Duration
	var spans [2][]time.Duration
	var opens, catchups, recoveries []time.Duration
	for i := range r.scaled(dfRounds) {
		settle()
		if r.trace {
			addCounters(reg0, promCounters(d.obs))
		}
		h0, m0 := cacheStats(d.sys, peers)
		n := len(publish)
		closedLoop(dfLoop, true)
		h1, m1 := cacheStats(d.sys, peers)
		h, m = h+h1-h0, m+m1-m0
		if r.trace {
			addCounters(reg1, promCounters(d.obs))
		}
		allPublish = append(allPublish, publish[n:]...)
		settle()
		d.bursts(ctx, r, dfPairs, dfBurst, &spans, &allPublish)
		if i%dfRecoverEvery != dfRecoverEvery-1 {
			if err := d.pause(ctx, r, owed, &quiet); err != nil {
				return err
			}
			owed = nil
			continue
		}
		open, catchup, err := d.recover(ctx, r, owed, &quiet)
		r.op(opRecover, err)
		if err != nil {
			return err
		}
		owed = nil
		opens = append(opens, open)
		catchups = append(catchups, catchup)
		recoveries = append(recoveries, open+catchup)
		closedLoop(dfRewarm, false)
	}
	to := time.Now()
	r.logf("timed rounds took %v", to.Sub(from))
	after := snapProc()
	pubs := d.pubs - pubs0
	logBytes := fileSize(d.logPath) - log0
	d.stop()
	d.stop = nil
	heap := liveHeap()
	rows := viewRows(d.sys, peers)

	r.check("key-reachability", d.w.checkKeys(d.sys))
	r.check("query-answers", d.w.checkQueries(ctx, d.sys, rng, 40))
	// A peer joins the confederation: a new System on the HTTP bus
	// imports the whole history in one exchange, dfJoins times. The first
	// also checks the recovered follower against a fresh build.
	var joins []time.Duration
	for i := range dfJoins {
		settle()
		fresh0, open, catchup, err := rebuild(ctx, d.w.spec, d.bus)
		r.op(opRecover, err)
		if err != nil {
			continue
		}
		joins = append(joins, open+catchup)
		if i == 0 {
			r.check("recovered-equals-fresh", d.w.checkSame(d.sys, fresh0))
		}
	}
	// The join of set-up, over the base entries only, is a few fsyncs and
	// HTTP round trips at this state size; between runs it moved with the
	// shared machine's load by twice as much as this join does.
	r.set("join_s", secs(median(joins)), "s")
	windows := r.scaled(dfRounds)
	halves := max(1, windows/2)
	r.set("freshness_p50_ms", ms(median(fresh)), "ms")
	r.set("freshness_p90_ms", ms(midMean(perWindow(fresh, halves, 0.9))), "ms")
	r.info("freshness_p99_ms", ms(quantile(fresh, 0.99)), "ms")
	r.info("query_p99_us", us(quantile(query, 0.99)), "us")
	// The publish latency is taken while the follower is closed or its
	// push delivery paused: a closed-loop publish races the follower's
	// reaction to it for the CPU and disk of this one machine, which
	// doubles it and its spread between runs (see README.md). The medians
	// are over all samples; the p90s are taken per window of two rounds
	// and the rates per burst, and both are averaged over the middle half
	// of the windows or bursts, so that a stall of the shared machine
	// moves a figure that is set aside.
	r.set("publish_p50_us", us(median(quiet)), "us")
	r.info("publish_loop_p50_us", us(median(publish)), "us")
	r.set("query_p50_us", us(median(query)), "us")
	r.set("query_p90_us", us(midMean(perWindow(query, halves, 0.9))), "us")
	r.set("insert_pubs_per_s", float64(dfBurst)/midMean(spans[0]).Seconds(), "1/s")
	r.set("delete_pubs_per_s", float64(dfBurst)/midMean(spans[1]).Seconds(), "1/s")
	r.set("recovery_s", secs(median(recoveries)), "s")
	r.set("live_heap_mb", float64(heap)/(1<<20), "MB")
	if !r.trace {
		return nil
	}
	var snap int64
	if info, err := orchestra.InspectStateDir(d.stateDir); err == nil {
		for _, v := range info.Views {
			snap += v.SnapshotBytes
		}
	}
	r.perLayer(layerInput{
		obs: d.obsAll, from: from, to: to, pubs: pubs,
		before: before, after: after, reg0: reg0, reg1: reg1,
		probe: d.probe, publish: allPublish, queryCalls: query,
		open: median(opens), catchup: median(catchups),
		logBytes: logBytes, snapBytes: snap, rows: rows, heap: heap,
		qcHits: h, qcMisses: m,
	})
	return nil
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}
