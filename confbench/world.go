package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"orchestra"
)

// world is a generated confederation together with the benchmark's own
// record of which entries are live at which peer. The record, not the
// program, is what the oracle checks outputs against.
//
// The mapping topology comes from a fixed generator seed, so every run of
// a workload maintains the same DAG; --seed chooses the data and the
// operations (which entries, which peers, which keys are read).
type world struct {
	wl    *orchestra.Workload
	spec  *orchestra.Spec
	peers []string
	rels  map[string][]relation
	// reach[j] lists the peers with a mapping path to j, j included: the
	// peers whose keys every relation of j holds.
	reach map[string][]string

	// rng picks the entries to delete.
	rng  *rand.Rand
	live map[string][]entry
	// dead lists deleted keys, for probes that must come back empty.
	dead []int64
}

type relation struct {
	name  string
	arity int
}

// entry is one generated SWISS-PROT entry at its home peer: a fresh key
// and one tuple per relation of the peer.
type entry struct {
	key  int64
	edit orchestra.EditLog
}

// newWorld generates the confederation described by cfg and seeds the
// data stream from seed.
func newWorld(cfg orchestra.WorkloadConfig, seed int64) (*world, error) {
	wl, err := orchestra.NewWorkload(cfg)
	if err != nil {
		return nil, err
	}
	w := &world{
		wl:    wl,
		spec:  wl.Spec,
		peers: wl.PeerNames(),
		rels:  make(map[string][]relation),
		reach: make(map[string][]string),
		rng:   rand.New(rand.NewSource(seed)),
		live:  make(map[string][]entry),
	}
	for _, p := range w.spec.Universe.Peers() {
		for _, r := range p.Schema.Relations() {
			w.rels[p.Name] = append(w.rels[p.Name], relation{name: r.Name, arity: r.Arity()})
		}
	}
	// The generator draws entries from one stream that also built the
	// topology; discarding a seed-dependent number of entries makes the
	// data differ per seed while the DAG stays fixed. (The deletions and
	// reads --seed picks differ per seed through w.rng as well.)
	burn := 1 + w.rng.Intn(64)
	for i := 0; i < burn; i++ {
		wl.GenInsertions(w.peers[0], 1)
	}
	for j := range w.peers {
		seen := map[int]bool{j: true}
		stack := []int{j}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, e := range wl.Edges {
				if e[1] == n && !seen[e[0]] {
					seen[e[0]] = true
					stack = append(stack, e[0])
				}
			}
		}
		for i := range w.peers {
			if seen[i] {
				w.reach[w.peers[j]] = append(w.reach[w.peers[j]], w.peers[i])
			}
		}
	}
	return w, nil
}

// insert generates n fresh entries at peer and records them live.
func (w *world) insert(peer string, n int) orchestra.EditLog {
	var log orchestra.EditLog
	per := len(w.rels[peer])
	for i := 0; i < n; i++ {
		edits := w.wl.GenInsertions(peer, 1)
		if len(edits) != per {
			panic(fmt.Sprintf("confbench: peer %s entry has %d tuples, want %d", peer, len(edits), per))
		}
		w.live[peer] = append(w.live[peer], entry{key: edits[0].Tuple[0].AsInt(), edit: edits})
		log = append(log, edits...)
	}
	return log
}

// remove picks n live entries of peer at random and returns the edit log
// deleting them, recording them dead.
func (w *world) remove(peer string, n int) orchestra.EditLog {
	var log orchestra.EditLog
	for i := 0; i < n && len(w.live[peer]) > 0; i++ {
		es := w.live[peer]
		k := w.rng.Intn(len(es))
		for _, e := range es[k].edit {
			log = append(log, orchestra.Del(e.Rel, e.Tuple))
		}
		w.dead = append(w.dead, es[k].key)
		w.live[peer] = append(es[:k], es[k+1:]...)
	}
	return log
}

// expectedKeys is the oracle: the keys every relation of peer j must hold
// in every view — the live keys of all peers that reach j.
func (w *world) expectedKeys(j string) map[int64]bool {
	out := make(map[int64]bool)
	for _, i := range w.reach[j] {
		for _, e := range w.live[i] {
			out[e.key] = true
		}
	}
	return out
}

// randomLiveKey returns a live key that peer j's relations hold, or
// false when there is none.
func (w *world) randomLiveKey(rng *rand.Rand, j string) (int64, bool) {
	n := 0
	for _, i := range w.reach[j] {
		n += len(w.live[i])
	}
	if n == 0 {
		return 0, false
	}
	k := rng.Intn(n)
	for _, i := range w.reach[j] {
		if k < len(w.live[i]) {
			return w.live[i][k].key, true
		}
		k -= len(w.live[i])
	}
	return 0, false
}

// randomDeadKey returns a deleted key, or a key never generated when
// nothing was deleted yet.
func (w *world) randomDeadKey(rng *rand.Rand) int64 {
	if len(w.dead) == 0 {
		return 1 << 40
	}
	return w.dead[rng.Intn(len(w.dead))]
}

// query is one read the benchmark issues: its text, the view it reads and
// the peer whose keys its answer must equal (see world.answer).
type query struct {
	owner, text string
	// keysOf names the peer whose expected keys bound the answer; point
	// restricts the answer to that one key.
	keysOf string
	point  int64
	probe  bool
}

// atom renders "rel(k, v1, …)" with the key variable first and fresh
// variables for the other columns.
func atom(r relation, key, prefix string) string {
	args := []string{key}
	for i := 1; i < r.arity; i++ {
		args = append(args, fmt.Sprintf("%s%d", prefix, i))
	}
	return r.name + "(" + strings.Join(args, ", ") + ")"
}

// pointQuery probes one key of peer j's first relation in owner's view.
func (w *world) pointQuery(owner, j string, key int64) query {
	r := w.rels[j][0]
	text := fmt.Sprintf("ans(k) :- %s where k = %d", atom(r, "k", "x"), key)
	return query{owner: owner, text: text, keysOf: j, point: key, probe: true}
}

// joinQueries returns the shared-attribute joins over owner's view: every
// multi-relation peer's relations joined on their shared key, and every
// mapping edge's source and target relations joined on the key.
func (w *world) joinQueries(owner string) []query {
	var qs []query
	for _, p := range w.peers {
		if rs := w.rels[p]; len(rs) >= 2 {
			text := fmt.Sprintf("ans(k) :- %s, %s", atom(rs[0], "k", "x"), atom(rs[1], "k", "y"))
			qs = append(qs, query{owner: owner, text: text, keysOf: p})
		}
	}
	for _, e := range w.wl.Edges {
		qs = append(qs, w.edgeJoin(owner, w.peers[e[0]], w.peers[e[1]]))
	}
	return qs
}

// edgeJoin joins the first relations of the two ends of mapping src→dst on
// the key. Keys reaching src also reach dst, so the answer holds exactly
// src's keys.
func (w *world) edgeJoin(owner, src, dst string) query {
	text := fmt.Sprintf("ans(k) :- %s, %s", atom(w.rels[src][0], "k", "x"), atom(w.rels[dst][0], "k", "y"))
	return query{owner: owner, text: text, keysOf: src}
}

// answer returns the keys q must return under the oracle.
func (w *world) answer(q query) map[int64]bool {
	keys := w.expectedKeys(q.keysOf)
	if !q.probe {
		return keys
	}
	if keys[q.point] {
		return map[int64]bool{q.point: true}
	}
	return map[int64]bool{}
}

// reader is the part of a System the checks read, so the self-test can
// substitute a corrupted one.
type reader interface {
	Instance(owner, rel string) ([]orchestra.Tuple, error)
	Describe(owner string, t orchestra.Tuple) (string, error)
	Query(ctx context.Context, owner, q string, includeNulls bool) ([]orchestra.Tuple, error)
}

// checkKeys verifies the key-reachability oracle on every relation of
// every view.
func (w *world) checkKeys(s reader) error {
	for _, j := range w.peers {
		want := w.expectedKeys(j)
		for _, owner := range w.peers {
			for _, r := range w.rels[j] {
				rows, err := s.Instance(owner, r.name)
				if err != nil {
					return err
				}
				got := make(map[int64]bool, len(want))
				for _, t := range rows {
					got[t[0].AsInt()] = true
				}
				if err := sameKeys(got, want); err != nil {
					return fmt.Errorf("view %s relation %s: %w", owner, r.name, err)
				}
			}
		}
	}
	return nil
}

// checkQueries runs every join on every view plus n point probes (half of
// them on deleted keys) and compares the answers with the oracle.
func (w *world) checkQueries(ctx context.Context, s reader, rng *rand.Rand, n int) error {
	var qs []query
	for _, owner := range w.peers {
		qs = append(qs, w.joinQueries(owner)...)
	}
	for i := 0; i < n; i++ {
		owner := w.peers[rng.Intn(len(w.peers))]
		j := w.peers[rng.Intn(len(w.peers))]
		key, ok := w.randomLiveKey(rng, j)
		if !ok || i%2 == 1 {
			key = w.randomDeadKey(rng)
		}
		qs = append(qs, w.pointQuery(owner, j, key))
	}
	for _, q := range qs {
		rows, err := s.Query(ctx, q.owner, q.text, false)
		if err != nil {
			return fmt.Errorf("query %q on %s: %w", q.text, q.owner, err)
		}
		got := make(map[int64]bool, len(rows))
		for _, t := range rows {
			got[t[0].AsInt()] = true
		}
		if len(got) != len(rows) {
			return fmt.Errorf("query %q on %s: %d rows for %d distinct keys", q.text, q.owner, len(rows), len(got))
		}
		if err := sameKeys(got, w.answer(q)); err != nil {
			return fmt.Errorf("query %q on %s: %w", q.text, q.owner, err)
		}
	}
	return nil
}

// checkSame verifies that every view of a holds the instance of a fresh
// build b. No peer distrusts anything in these workloads, so every view
// holds the same instance and one view of b (the first peer's) serves as
// the reference for all views of a. Labeled nulls are internal ids that
// differ between systems, so each is compared by its Skolem term
// (Describe), rendered once per distinct null and hashed. Views are
// compared two at a time.
func (w *world) checkSame(a, b reader) error {
	ref, err := w.canonicalView(b, w.peers[0])
	if err != nil {
		return err
	}
	errs := make([]error, len(w.peers))
	sem := make(chan struct{}, 2)
	var wg sync.WaitGroup
	for i, owner := range w.peers {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			got, err := w.canonicalView(a, owner)
			if err != nil {
				errs[i] = err
				return
			}
			for rel, x := range got {
				y := ref[rel]
				if len(x) != len(y) {
					errs[i] = fmt.Errorf("view %s relation %s: %d rows, fresh build has %d", owner, rel, len(x), len(y))
					return
				}
				for k := range x {
					if x[k] != y[k] {
						errs[i] = fmt.Errorf("view %s relation %s differs from the fresh build", owner, rel)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// canonicalView returns the canonical rows of every relation of owner's
// view, by relation.
func (w *world) canonicalView(s reader, owner string) (map[string][]string, error) {
	nulls := make(map[int64]uint64)
	out := make(map[string][]string)
	for _, p := range w.peers {
		for _, r := range w.rels[p] {
			rows, err := canonicalRows(s, owner, r.name, nulls)
			if err != nil {
				return nil, err
			}
			out[r.name] = rows
		}
	}
	return out, nil
}

// canonicalRows returns the sorted canonical forms of a relation's rows in
// owner's view: constants as text, nulls as the hash of their Skolem term
// (memoised per view in nulls).
func canonicalRows(s reader, owner, rel string, nulls map[int64]uint64) ([]string, error) {
	rows, err := s.Instance(owner, rel)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(rows))
	var sb strings.Builder
	for i, t := range rows {
		sb.Reset()
		for _, v := range t {
			if !v.IsNull() {
				sb.WriteString(v.String())
				sb.WriteByte('|')
				continue
			}
			h, ok := nulls[v.NullID()]
			if !ok {
				d, err := s.Describe(owner, orchestra.Tuple{v})
				if err != nil {
					return nil, err
				}
				f := fnv.New64a()
				f.Write([]byte(d))
				h = f.Sum64()
				nulls[v.NullID()] = h
			}
			fmt.Fprintf(&sb, "#%x|", h)
		}
		out[i] = sb.String()
	}
	sort.Strings(out)
	return out, nil
}

func sameKeys(got, want map[int64]bool) error {
	var missing, extra []int64
	for k := range want {
		if !got[k] {
			missing = append(missing, k)
		}
	}
	for k := range got {
		if !want[k] {
			extra = append(extra, k)
		}
	}
	if len(missing) == 0 && len(extra) == 0 {
		return nil
	}
	sort.Slice(missing, func(i, j int) bool { return missing[i] < missing[j] })
	sort.Slice(extra, func(i, j int) bool { return extra[i] < extra[j] })
	return fmt.Errorf("keys missing %v, unexpected %v", head(missing), head(extra))
}

func head(ks []int64) []int64 {
	if len(ks) > 5 {
		return ks[:5]
	}
	return ks
}
