package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"repro/internal/server"
)

type opKind uint8

const (
	opQuery  opKind = iota // POST /query, JSON answer
	opStream               // POST /query with stream:true, NDJSON answer
	opUpdate               // POST /db/{name}/update
)

var opKindNames = [...]string{"query", "stream", "update"}

// op is one operation of a workload's traffic.
type op struct {
	kind          opKind
	q             int // population index (query and stream ops)
	limit, offset int
	upd           int // update index (update ops)
}

// update is one update batch: the database it targets and its request body.
type update struct {
	db   string
	body []byte
}

// workload is one traffic mix and its inputs, all generated from the seed.
// Nothing in it depends on the program under test.
type workload struct {
	name   string
	routed bool    // bvqrouter in front of two bvqd replicas
	rate   float64 // open-loop offered rate, operations per second
	sloMS  float64 // latency limit behind slo_attainment
	slo    string  // why the limit sits where it does
	warm   bool    // every population query is answered once during set-up

	dbs     []string // serving names, in -db flag order
	graphs  map[string]*graph
	initial map[string]*state // initial snapshot of each database, for the oracle
	pop     []query
	gen     *opGen
}

// opGen draws a workload's operation sequence. Operation i is the same for
// a given seed however many workers consume the sequence and in what order.
type opGen struct {
	mu       sync.Mutex
	rng      *rand.Rand
	draw     func(g *opGen) op
	ops      []op
	updates  []update
	stateful bool     // updates touch the queried database (churn has one)
	states   []*state // states[k]: that database after k updates
	cur      *graph   // working copy the update generator mutates
}

// at returns operation i, drawing the sequence up to it.
func (g *opGen) at(i int) op {
	g.mu.Lock()
	defer g.mu.Unlock()
	for len(g.ops) <= i {
		g.ops = append(g.ops, g.draw(g))
	}
	return g.ops[i]
}

func (g *opGen) update(k int) update {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.updates[k]
}

// snapshot returns database db after k updates of the sequence. Only the
// churn workload's updates touch a queried database; elsewhere every read
// sees the initial snapshot.
func (w *workload) snapshot(db string, k int) *state {
	if !w.gen.stateful {
		return w.initial[db]
	}
	w.gen.mu.Lock()
	defer w.gen.mu.Unlock()
	return w.gen.states[k]
}

// toggle flips the given E edges and label memberships of the working
// copy, emits the update batch that does the same on the server, and — for
// a stateful generator — records the resulting snapshot.
func (g *opGen) toggle(db string, edges [][2]int, label string, nodes []int) int {
	var entries []server.UpdateEntry
	if len(edges) > 0 {
		e := server.UpdateEntry{Relation: "E"}
		for _, ed := range edges {
			row := []int{ed[0], ed[1]}
			if g.cur.edge[ed] {
				delete(g.cur.edge, ed)
				e.Delete = append(e.Delete, row)
			} else {
				g.cur.edge[ed] = true
				e.Insert = append(e.Insert, row)
			}
		}
		entries = append(entries, e)
	}
	if len(nodes) > 0 {
		e := server.UpdateEntry{Relation: label}
		l := g.cur.label(label)
		for _, v := range nodes {
			if l[v] {
				e.Delete = append(e.Delete, []int{v})
			} else {
				e.Insert = append(e.Insert, []int{v})
			}
			l[v] = !l[v]
		}
		entries = append(entries, e)
	}
	body, err := json.Marshal(server.UpdateRequest{Updates: entries})
	if err != nil {
		panic(err)
	}
	g.updates = append(g.updates, update{db: db, body: body})
	if g.stateful {
		g.states = append(g.states, &state{g: g.cur.clone()})
	}
	return len(g.updates) - 1
}

// ledgerShare is the share of the read-only workloads' operations that
// are update batches on the ledger database.
const ledgerShare = 0.10

// ledgerUpdate draws an update batch that toggles one tuple of the
// 32-element ledger database, which no query reads: the read-only
// workloads measure the write path on it while the databases their
// queries read, and so their caches, stay untouched.
func (g *opGen) ledgerUpdate() op {
	e := [2]int{g.rng.IntN(32), g.rng.IntN(32)}
	return op{kind: opUpdate, upd: g.toggle("ledger", [][2]int{e}, "", nil)}
}

func newLedger(rng *rand.Rand) *graph {
	g := newGraph(32, nil)
	g.randomEdges(rng, 48)
	return g
}

// every returns the indices 0..n-1.
func every(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// pick returns the population indices whose template is in ts.
func pick(pop []query, db string, ts ...tmpl) []int {
	var out []int
	for i, q := range pop {
		for _, t := range ts {
			if q.t == t && q.db == db {
				out = append(out, i)
			}
		}
	}
	return out
}

func newWorkload(name string, seed uint64) (*workload, error) {
	rng := rand.New(rand.NewPCG(seed, uint64(len(name))))
	var w *workload
	switch name {
	case "routed-hot":
		w = routedHot(rng)
	case "cold-eval":
		w = coldEval(rng)
	case "churn":
		w = churn(rng)
	default:
		return nil, fmt.Errorf("unknown workload %q (want routed-hot, cold-eval or churn)", name)
	}
	w.initial = map[string]*state{}
	for name, g := range w.graphs {
		w.initial[name] = &state{g: g}
	}
	if w.gen.stateful {
		w.gen.states = []*state{w.initial[w.dbs[0]]}
	}
	return w, nil
}

// routedHot: bvqrouter over two replicas, one graph, 512 hot query texts
// that fit the 4096-entry result cache, Zipf popularity, warmed during
// set-up. Evaluation is off the path; router hop, HTTP, handler, encoding
// and cache lookup carry the cost.
func routedHot(rng *rand.Rand) *workload {
	g := newGraph(200, labelNames("L", 12))
	g.randomEdges(rng, 300)
	g.randomLabels(rng, 0.12)
	g.bottomupOracle = true
	w := &workload{
		name: "routed-hot", routed: true, rate: 200, sloMS: 10, warm: true,
		slo:    "a result-cache hit through one router hop; 10 ms is several times the warm p99",
		dbs:    []string{"g", "ledger"},
		graphs: map[string]*graph{"g": g, "ledger": newLedger(rng)},
	}
	w.pop = population(rng, 512, []mixEntry{
		{"g", tReach, 25}, {"g", tUntil, 20}, {"g", tSafe, 10}, {"g", tNbr, 15}, {"g", tJoin2, 15}, {"g", tJoin3, 15},
	}, map[string][]string{"g": g.names})
	streamPool := pick(w.pop, "g", tReach, tUntil) // never empty: A-nodes satisfy both
	zAll := newZipf(rng, w, every(len(w.pop)), 1.0)
	zStream := newZipf(rng, w, streamPool, 1.0)
	w.gen = &opGen{rng: rng, cur: w.graphs["ledger"].clone()}
	w.gen.draw = func(gen *opGen) op {
		switch u := gen.rng.Float64(); {
		case u < ledgerShare:
			return gen.ledgerUpdate()
		case u < ledgerShare+0.10:
			return op{kind: opStream, q: zStream.draw(gen.rng)}
		default:
			return op{kind: opQuery, q: zAll.draw(gen.rng)}
		}
	}
	return w
}

// coldEval: one bvqd, two graphs, far more distinct texts than the plan
// (1024) and result (4096) caches hold, uniform popularity (each text read
// at most once a run). "mid" is sparse
// with n=256 (auto currently routes its width-3 queries dense); "large" has
// n=5000 (sparse/Yannakakis route), and a fifth of all reads are LIMIT-k
// streamed joins on it.
func coldEval(rng *rand.Rand) *workload {
	mid := newGraph(256, labelNames("L", 32))
	mid.randomEdges(rng, 154)
	mid.randomLabels(rng, 0.08)
	mid.bottomupOracle = true
	large := newGraph(5000, labelNames("L", 16))
	large.randomEdges(rng, 5000)
	large.randomLabels(rng, 0.1)
	w := &workload{
		name: "cold-eval", rate: 80, sloMS: 40,
		slo:    "nearly every read evaluates (dense width-3 joins on mid, Yannakakis joins on large); 40 ms is about twice the quiet-host p99, so only tail evaluations and host stalls miss it",
		dbs:    []string{"mid", "large", "ledger"},
		graphs: map[string]*graph{"mid": mid, "large": large, "ledger": newLedger(rng)},
	}
	labels := map[string][]string{"mid": mid.names, "large": large.names}
	w.pop = population(rng, 16384, []mixEntry{
		{"mid", tReach, 16}, {"mid", tUntil, 16}, {"mid", tSafe, 10}, {"mid", tNbr, 10},
		{"mid", tJoin2, 10}, {"mid", tJoin3, 5}, {"large", tJoin3, 8},
	}, labels)
	jsonN := len(w.pop)
	w.pop = append(w.pop, population(rng, 1024, []mixEntry{{"large", tJoin2, 1}}, labels)...)
	// JSON reads take the texts in a random order without repeats: a run
	// reads fewer texts than there are, so none is read twice and the
	// result cache never serves one. Drawn with repeats, the share of reads
	// the cache served grew through the run as it filled, and read latency
	// fell from the first segment to the last.
	order := rng.Perm(jsonN)
	reads := 0
	limits := []int{10, 20, 50}
	w.gen = &opGen{rng: rng, cur: w.graphs["ledger"].clone()}
	w.gen.draw = func(gen *opGen) op {
		if gen.rng.Float64() < ledgerShare {
			return gen.ledgerUpdate()
		}
		if gen.rng.Float64() < 0.20 {
			o := op{kind: opStream, q: jsonN + gen.rng.IntN(len(w.pop)-jsonN), limit: limits[gen.rng.IntN(len(limits))]}
			if gen.rng.IntN(4) == 0 {
				o.offset = o.limit
			}
			return o
		}
		reads++
		return op{kind: opQuery, q: order[(reads-1)%jsonN]}
	}
	return w
}

// churn: one bvqd, one graph of four chains whose reachability fixpoints
// run about thirty stages deep, 256 fixpoint/join texts with Zipf popularity
// (warmed), and a tenth of operations are update batches alternating
// between E-edge toggles and toggles of M labels that few queries mention.
func churn(rng *rand.Rand) *workload {
	lnames := labelNames("L", 8)
	mnames := labelNames("M", 4)
	g := newGraph(128, append(append([]string(nil), lnames...), mnames...))
	const chains = 4
	g.chainEdges(rng, chains, 12)
	// Each L label marks one node near the tail of each chain, so every
	// reachability query's fixpoint runs most of a chain's length whatever
	// the seed; M labels mark two random nodes.
	per := g.n / chains
	for _, name := range lnames {
		for c := 0; c < chains; c++ {
			g.label(name)[c*per+per-1-rng.IntN(6)] = true
		}
	}
	for _, name := range mnames {
		for _, v := range rng.Perm(g.n)[:2] {
			g.label(name)[v] = true
		}
	}
	w := &workload{
		name: "churn", rate: 100, sloMS: 25, warm: true,
		slo:    "reads include re-evaluation after invalidation; 25 ms is about twice the quiet-host p99 and several times a full recompute of the deepest fixpoint",
		dbs:    []string{"c"},
		graphs: map[string]*graph{"c": g},
	}
	// Twelve copies of every L label per M label: about one label slot in
	// twenty-five names an M label.
	var pool []string
	for i := 0; i < 12; i++ {
		pool = append(pool, lnames...)
	}
	pool = append(pool, mnames...)
	w.pop = population(rng, 256, []mixEntry{
		{"c", tReach, 15}, {"c", tUntil, 10}, {"c", tSafe, 15}, {"c", tNbr, 30}, {"c", tJoin2, 30},
	}, map[string][]string{"c": pool})
	// Every deleting E batch drops the cached fixpoints, so a read is a
	// cache hit only if its text was read since the last one. With Zipf(0.7)
	// about four reads in five are re-evaluations and the read median sits
	// among them; with Zipf(1.0) hits and re-evaluations came close to even
	// and the median jumped between the two from one segment to the next.
	streamPool := pick(w.pop, "c", tReach, tUntil)
	zAll := newZipf(rng, w, every(len(w.pop)), 0.7)
	zStream := newZipf(rng, w, streamPool, 0.7)
	// Four groups of two cross-chain edges, each from near a chain's head
	// to the middle of the next chain. E toggles flip the same group twice
	// before moving to the next, so E batches alternate between
	// insert-only and delete-only deltas and every insert meets a cache in
	// the same state: refilled by the reads since the previous delete. An
	// insert changes the answers of the few nodes above its source, so a
	// maintained fixpoint converges in a few stages, while a recompute runs
	// the whole chain length.
	var groups [][][2]int
	for i := 0; i < 4; i++ {
		var group [][2]int
		for _, c := range rng.Perm(chains)[:2] {
			next := (c + 1) % chains
			group = append(group, [2]int{c*per + rng.IntN(4), next*per + per/2 + rng.IntN(6)})
		}
		groups = append(groups, group)
	}
	w.gen = &opGen{rng: rng, cur: g.clone(), stateful: true}
	w.gen.draw = func(gen *opGen) op {
		switch u := gen.rng.Float64(); {
		case u < 0.10:
			k := len(gen.updates)
			if k%2 == 0 {
				return op{kind: opUpdate, upd: gen.toggle("c", groups[(k/4)%len(groups)], "", nil)}
			}
			nodes := []int{gen.rng.IntN(g.n), gen.rng.IntN(g.n)}
			if nodes[0] == nodes[1] {
				nodes = nodes[:1]
			}
			return op{kind: opUpdate, upd: gen.toggle("c", nil, mnames[gen.rng.IntN(len(mnames))], nodes)}
		case u < 0.20:
			return op{kind: opStream, q: zStream.draw(gen.rng)}
		default:
			return op{kind: opQuery, q: zAll.draw(gen.rng)}
		}
	}
	return w
}

// arrivals returns the Poisson arrival offsets of n operations at rate.
func arrivals(seed uint64, rate float64, n int) []time.Duration {
	rng := rand.New(rand.NewPCG(seed, 0xa11))
	out := make([]time.Duration, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}
