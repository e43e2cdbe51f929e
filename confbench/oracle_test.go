package main

import (
	"context"
	"math/rand"
	"testing"

	"orchestra"
)

// The self-test shows that each oracle check passes on a correct instance
// and fails on a deliberately corrupted one. Run it from this directory
// with `go test`.

var testCfg = orchestra.WorkloadConfig{
	Peers:        4,
	Dataset:      orchestra.DatasetInteger,
	Topology:     orchestra.TopologyRandom,
	AvgNeighbors: 2,
	Seed:         7,
}

// confederation builds a world and a System over bus holding a few
// entries per peer, one of them deleted again, and exchanges once.
func confederation(t *testing.T, bus *orchestra.MemoryBus) (*world, *orchestra.System) {
	t.Helper()
	ctx := context.Background()
	w, err := newWorld(testCfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := orchestra.New(w.spec, orchestra.WithBus(bus))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range w.peers {
		if err := s.Publish(ctx, p, w.insert(p, 4)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Publish(ctx, w.peers[0], w.remove(w.peers[0], 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExchangeAll(ctx); err != nil {
		t.Fatal(err)
	}
	return w, s
}

func TestChecksPassOnCorrectInstance(t *testing.T) {
	bus := orchestra.NewMemoryBus()
	w, s := confederation(t, bus)
	if err := w.checkKeys(s); err != nil {
		t.Fatalf("checkKeys: %v", err)
	}
	if err := w.checkQueries(context.Background(), s, rand.New(rand.NewSource(1)), 20); err != nil {
		t.Fatalf("checkQueries: %v", err)
	}
	fresh, _, _, err := rebuild(context.Background(), w.spec, bus)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.checkSame(s, fresh); err != nil {
		t.Fatalf("checkSame: %v", err)
	}
}

// An entry the oracle does not know about must fail the key and query
// checks.
func TestChecksFailOnUnrecordedEntry(t *testing.T) {
	ctx := context.Background()
	w, s := confederation(t, orchestra.NewMemoryBus())
	if err := s.Publish(ctx, w.peers[0], w.wl.GenInsertions(w.peers[0], 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExchangeAll(ctx); err != nil {
		t.Fatal(err)
	}
	if w.checkKeys(s) == nil {
		t.Error("checkKeys passed with an unrecorded entry in every view")
	}
	if w.checkQueries(ctx, s, rand.New(rand.NewSource(1)), 0) == nil {
		t.Error("checkQueries passed with an unrecorded entry in every view")
	}
}

// An entry the oracle believes deleted but the system still holds must
// fail the key check.
func TestCheckKeysFailsOnMissedDeletion(t *testing.T) {
	w, s := confederation(t, orchestra.NewMemoryBus())
	w.remove(w.peers[1], 1)
	if w.checkKeys(s) == nil {
		t.Error("checkKeys passed although an entry was never deleted")
	}
}

// dropping hides one row of every instance and answer, as a view that
// lost a tuple would.
type dropping struct{ *orchestra.System }

func (d dropping) Instance(owner, rel string) ([]orchestra.Tuple, error) {
	rows, err := d.System.Instance(owner, rel)
	if len(rows) > 0 {
		rows = rows[1:]
	}
	return rows, err
}

func (d dropping) Query(ctx context.Context, owner, q string, includeNulls bool) ([]orchestra.Tuple, error) {
	rows, err := d.System.Query(ctx, owner, q, includeNulls)
	if len(rows) > 0 {
		rows = rows[1:]
	}
	return rows, err
}

func TestChecksFailOnLostTuple(t *testing.T) {
	bus := orchestra.NewMemoryBus()
	w, s := confederation(t, bus)
	lossy := dropping{s}
	if w.checkKeys(lossy) == nil {
		t.Error("checkKeys passed on a view missing a tuple")
	}
	if w.checkQueries(context.Background(), lossy, rand.New(rand.NewSource(1)), 0) == nil {
		t.Error("checkQueries passed on answers missing a row")
	}
	fresh, _, _, err := rebuild(context.Background(), w.spec, bus)
	if err != nil {
		t.Fatal(err)
	}
	if w.checkSame(lossy, fresh) == nil {
		t.Error("checkSame passed on a view missing a tuple")
	}
}

// A fresh build over a bus holding one more publication must differ.
func TestCheckSameFailsOnDifferentHistory(t *testing.T) {
	ctx := context.Background()
	bus := orchestra.NewMemoryBus()
	w, s := confederation(t, bus)
	other := orchestra.NewMemoryBus()
	pubs, _, err := bus.Fetch(ctx, orchestra.Cursor{})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range pubs {
		if err := other.Append(ctx, d.Pub.Peer, d.Pub.Log); err != nil {
			t.Fatal(err)
		}
	}
	if err := other.Append(ctx, w.peers[0], w.wl.GenInsertions(w.peers[0], 1)); err != nil {
		t.Fatal(err)
	}
	fresh, _, _, err := rebuild(ctx, w.spec, other)
	if err != nil {
		t.Fatal(err)
	}
	if w.checkSame(s, fresh) == nil {
		t.Error("checkSame passed against a build with an extra publication")
	}
}
