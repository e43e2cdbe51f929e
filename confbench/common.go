package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"orchestra"
)

// setupReps is how many times each workload builds its confederation; the
// run keeps the last build and reports the median set-up and join times.
const setupReps = 11

// rebuildReps is how many times dag-churn, which has no durable state,
// rebuilds its System to measure recovery; the median is reported.
const rebuildReps = 9

// visibleTimeout bounds every wait for a publication to become visible.
const visibleTimeout = 30 * time.Second

// errTimeout marks a wait that ran out of time.
var errTimeout = errors.New("timed out")

// minCursor returns the smallest bus position over the peers' views.
func minCursor(s *orchestra.System, peers []string) int {
	m := -1
	for _, p := range peers {
		if c := s.ViewCursor(p).Total(); m < 0 || c < m {
			m = c
		}
	}
	return m
}

// waitCovered polls until every view of s covers position target.
func waitCovered(s *orchestra.System, peers []string, target int) error {
	deadline := time.Now().Add(visibleTimeout)
	for minCursor(s, peers) < target {
		if time.Now().After(deadline) {
			return fmt.Errorf("views at %d, not %d, after %v", minCursor(s, peers), target, visibleTimeout)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// settle collects garbage and lets background work finish before a timed
// phase starts.
func settle() {
	runtime.GC()
	time.Sleep(50 * time.Millisecond)
}

// timedPublish publishes log as peer and returns how long the call took.
func timedPublish(ctx context.Context, s *orchestra.System, peer string, log orchestra.EditLog) (time.Duration, error) {
	start := time.Now()
	err := s.Publish(ctx, peer, log)
	return time.Since(start), err
}

// rebuild measures recovery without durable state: a new System on the
// same bus, caught up to the bus horizon in one exchange. It returns the
// rebuilt System and the open and catch-up times.
func rebuild(ctx context.Context, sp *orchestra.Spec, bus orchestra.PublicationBus) (*orchestra.System, time.Duration, time.Duration, error) {
	start := time.Now()
	s, err := orchestra.New(sp, orchestra.WithBus(bus))
	if err != nil {
		return nil, 0, 0, err
	}
	opened := time.Now()
	if _, err := s.ExchangeAll(ctx); err != nil {
		return nil, 0, 0, err
	}
	return s, opened.Sub(start), time.Since(opened), nil
}

// confed is one built confederation of a workload.
type confed struct {
	w     *world
	sys   *orchestra.System
	bus   orchestra.PublicationBus // the bus without any decorator
	obs   *orchestra.Observability
	probe *busProbe
	pubs  int // publications on the bus
}

// scaled returns n, a count of operations sized for a 30-second run on the
// reference machine (see README.md), scaled to the run's --seconds. A run
// does a fixed amount of work rather than running on a clock, so the state
// and history it builds (bus length, Skolem table, snapshots) do not
// depend on how fast the program is.
func (r *run) scaled(n int) int {
	return max(1, int(math.Round(float64(n)*r.seconds/30)))
}

// buildReps builds a workload's confederation setupReps times, keeping the
// last build, and records the median set-up and join times.
func buildReps(ctx context.Context, r *run, build func(context.Context, *run) (*confed, time.Duration, error), release func(*confed)) (*confed, error) {
	var setups, joins []time.Duration
	var c *confed
	for i := 0; i < setupReps; i++ {
		if c != nil {
			release(c)
		}
		settle()
		start := time.Now()
		var join time.Duration
		var err error
		if c, join, err = build(ctx, r); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start))
		joins = append(joins, join)
	}
	r.set("setup_s", secs(median(setups)), "s")
	r.set("join_s", secs(median(joins)), "s")
	return c, nil
}

// finalChecks runs the oracle checks on a quiescent system: key
// reachability, query answers, and equality with a fresh rebuild. The
// rebuilds, rebuildReps of them, are the recovery measurement of a
// workload without durable state; it returns the median open, catch-up
// and total times.
func finalChecks(ctx context.Context, r *run, w *world, s *orchestra.System, bus orchestra.PublicationBus, rng *rand.Rand) (open, catchup, total time.Duration) {
	t := time.Now()
	r.check("key-reachability", w.checkKeys(s))
	r.check("query-answers", w.checkQueries(ctx, s, rng, 40))
	r.logf("oracle checks took %v", time.Since(t))
	var opens, catchups, totals []time.Duration
	for i := 0; i < rebuildReps; i++ {
		settle()
		fresh, open, catchup, err := rebuild(ctx, w.spec, bus)
		r.op(opRecover, err)
		if err != nil {
			continue
		}
		opens = append(opens, open)
		catchups = append(catchups, catchup)
		totals = append(totals, open+catchup)
		if i == 0 {
			t := time.Now()
			r.check("incremental-equals-fresh", w.checkSame(s, fresh))
			r.logf("fresh-build comparison took %v", time.Since(t))
		}
	}
	return median(opens), median(catchups), median(totals)
}

// viewRows totals the rows of every peer view of s.
func viewRows(s *orchestra.System, peers []string) int {
	n := 0
	for _, p := range peers {
		if rows, err := s.TotalRows(p); err == nil {
			n += rows
		}
	}
	return n
}

// cacheStats sums the query-cache counters over the peer views.
func cacheStats(s *orchestra.System, peers []string) (hits, misses uint64) {
	for _, p := range peers {
		h, m, _, err := s.QueryCacheStats(p)
		if err == nil {
			hits += h
			misses += m
		}
	}
	return hits, misses
}
