package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cache"
	"repro/internal/database"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/router"
	"repro/internal/server"
)

// span is one timed call into a layer, recorded by the replay from the
// benchmark's own code. Where a span corresponds to a bvqd_stage_seconds
// label (compile, cache_lookup, eval, extract, stream_drain) it carries
// that label, so a span, a histogram and a benchmark number line up.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the replay began
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // span id; -1 for a root
	Op     int    `json:"op"`     // operation index in the workload sequence
}

// spanLayer maps span names to the layer whose self time they count as.
// server.handler spans are separate roots — the whole in-process handler —
// and are reported on their own, not as self time.
var spanLayer = map[string]string{
	"op":                 "bench",
	"router.lookup":      "router",
	"compile":            "cache", // its self time is the plan-cache lookup
	"parser.ParseQuery":  "parser",
	"plan.Compile":       "plan",
	"cache_lookup":       "cache",
	"eval":               "eval",
	"eval.ExplainRoute":  "eval",
	"eval.maintain":      "eval",
	"stream_drain":       "eval",
	"extract":            "eval",
	"server.encode":      "server",
	"database.Apply":     "database",
	"cache.triage":       "cache",
	"server.handler":     "handler",
	"server.handler.hit": "handler",
}

var selfLayers = []string{"parser", "plan", "cache", "eval", "database", "server", "router"}

// replayResult is what the single-client layer replay measured.
type replayResult struct {
	ops        int
	spans      []span
	parse      []time.Duration
	compile    []time.Duration
	apply      []time.Duration
	maintain   []time.Duration
	firstTuple []time.Duration
	handler    []time.Duration
	handlerHit []time.Duration
	encode     []time.Duration
	overhead   []time.Duration
	evalBusy   []time.Duration
	nodes      int
	plans      int
	denseNS    int64
	denseN     int
	sparseNS   int64
	sparseN    int
	evals      int
	acyclic    int
	work       eval.Stats // summed over evaluations
	ringNS     float64
	self       map[string]time.Duration
}

type snapshot struct {
	db *database.Database
	fp uint64
}

type replayer struct {
	w       *workload
	t0      time.Time
	res     *replayResult
	dbs     map[string]snapshot
	plans   *cache.LRU[*plan.Plan]
	results *cache.ResultCache
	index   *cache.Index // churn metadata of live results, as bvqd keeps it
	ring    *router.Ring
	handler http.Handler
	opts    *eval.Options
}

func (rp *replayer) begin(name string, parent, op int) int {
	rp.res.spans = append(rp.res.spans, span{ID: len(rp.res.spans), Name: name, Start: int64(time.Since(rp.t0)), Parent: parent, Op: op})
	return len(rp.res.spans) - 1
}

func (rp *replayer) end(id int) time.Duration {
	s := &rp.res.spans[id]
	s.End = int64(time.Since(rp.t0))
	return time.Duration(s.End - s.Start)
}

// replay runs the open-loop operations again from a single client, in
// process: each layer's public calls wrapped in spans, and the same request
// through server.New(...).Handler() via httptest with no socket. It stops
// after the operations or after half the run's measured seconds, whichever
// comes first, and writes the spans to dir/spans.jsonl.
func replay(w *workload, o options, dir string, at []time.Duration) (*replayResult, error) {
	rp := &replayer{
		w:       w,
		res:     &replayResult{self: map[string]time.Duration{}},
		dbs:     map[string]snapshot{},
		plans:   cache.NewLRU[*plan.Plan](planCache),
		results: cache.NewResultCache(resultCache),
		index:   cache.NewIndex(resultCache),
		opts:    &eval.Options{Backend: eval.BackendAuto},
		t0:      time.Now(),
	}
	served := map[string]*database.Database{}
	for _, name := range w.dbs {
		db, err := database.Parse(w.graphs[name].text())
		if err != nil {
			return nil, err
		}
		served[name] = db
		rp.dbs[name] = snapshot{db, db.Fingerprint()}
	}
	srv, err := server.New(server.Config{Databases: served, PlanCacheSize: planCache, ResultCacheSize: resultCache})
	if err != nil {
		return nil, err
	}
	rp.handler = srv.Handler()
	if w.routed {
		rp.ring = router.NewRing(router.DefaultVnodes, []string{"http://127.0.0.1:1", "http://127.0.0.1:2"})
		rp.res.ringNS = ringLookupNS(rp.ring, w)
	}
	if w.warm {
		for i := range w.pop {
			if err := rp.serve(-1-i, op{kind: opQuery, q: i}); err != nil {
				return nil, fmt.Errorf("replay warm-up: %w", err)
			}
		}
		rp.res = &replayResult{self: map[string]time.Duration{}, ringNS: rp.res.ringNS}
	}
	rp.t0 = time.Now()
	stop := rp.t0.Add(time.Duration(o.seconds) * time.Second / 2)
	for i := range at {
		if time.Now().After(stop) {
			break
		}
		var err error
		if o := w.gen.at(i); o.kind == opUpdate {
			err = rp.update(i, w.gen.update(o.upd))
		} else {
			err = rp.serve(i, o)
		}
		if err != nil {
			return nil, fmt.Errorf("replay op %d: %w", i, err)
		}
		rp.res.ops++
	}
	rp.res.selfTimes()
	return rp.res, writeSpans(filepath.Join(dir, "spans.jsonl"), rp.res.spans)
}

// ringLookupNS times Ring.Lookup over the population's keys.
func ringLookupNS(r *router.Ring, w *workload) float64 {
	keys := make([]string, len(w.pop))
	for i := range w.pop {
		keys[i] = router.QueryKey(w.pop[i].db, w.pop[i].text)
	}
	const n = 20000
	start := time.Now()
	for i := 0; i < n; i++ {
		r.Lookup(keys[i%len(keys)], 0)
	}
	return float64(time.Since(start).Nanoseconds()) / n
}

// serve replays one query or stream operation.
func (rp *replayer) serve(i int, o op) error {
	q := &rp.w.pop[o.q]
	ctx := context.Background()
	root := rp.begin("op", -1, i)
	if rp.ring != nil {
		s := rp.begin("router.lookup", root, i)
		rp.ring.Lookup(router.QueryKey(q.db, q.text), 0)
		rp.end(s)
	}
	var inner time.Duration // layer calls the handler also makes
	cs := rp.begin("compile", root, i)
	p, ok := rp.plans.Get(q.text)
	if !ok {
		ps := rp.begin("parser.ParseQuery", cs, i)
		lq, err := parser.ParseQuery(q.text)
		rp.res.parse = append(rp.res.parse, rp.end(ps))
		if err != nil {
			return err
		}
		pc := rp.begin("plan.Compile", cs, i)
		p, err = plan.Compile(lq)
		rp.res.compile = append(rp.res.compile, rp.end(pc))
		if err != nil {
			return err
		}
		rp.res.nodes += p.NumNodes()
		rp.res.plans++
		rp.plans.Put(q.text, p)
	}
	inner += rp.end(cs)
	snap := rp.dbs[q.db]
	ls := rp.begin("cache_lookup", root, i)
	key := cache.ResultKey(snap.fp, "compiled", rp.opts, q.text)
	hit, cached := rp.results.Get(key)
	inner += rp.end(ls)

	var st *eval.Stats
	var evalDur time.Duration
	route := ""
	if o.kind == opStream {
		var en eval.Enumerator
		start := time.Now()
		if cached {
			en = eval.NewSetEnumerator(ctx, hit.Answer, nil)
		} else {
			es := rp.begin("eval", root, i)
			rs := rp.begin("eval.ExplainRoute", es, i)
			_, route = eval.ExplainRoute(p, snap.db, rp.opts)
			rp.end(rs)
			var err error
			en, st, err = eval.EvalPlanEnum(ctx, p, snap.db, rp.opts)
			evalDur = rp.end(es)
			if err != nil {
				return err
			}
		}
		ds := rp.begin("stream_drain", root, i)
		var collect *relation.Set
		if !cached && o.limit == 0 && o.offset == 0 {
			collect = relation.NewSet(q.t.arity())
		}
		if o.offset > 0 {
			en.Skip(o.offset)
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for n := 0; o.limit == 0 || n < o.limit; n++ {
			t, ok := en.Next()
			if !ok {
				break
			}
			if n == 0 {
				rp.res.firstTuple = append(rp.res.firstTuple, time.Since(start))
			}
			if collect != nil {
				collect.Add(t)
			}
			_ = enc.Encode(renderRow(t, snap.db))
		}
		err := en.Err()
		en.Close()
		inner += rp.end(ds)
		if err != nil {
			return err
		}
		if collect != nil {
			rp.store(q, key, p, cache.Result{Answer: collect, Stats: st}, nil)
		}
	} else {
		var ans *relation.Set
		if cached {
			ans = hit.Answer
		} else {
			es := rp.begin("eval", root, i)
			rs := rp.begin("eval.ExplainRoute", es, i)
			_, route = eval.ExplainRoute(p, snap.db, rp.opts)
			rp.end(rs)
			var mstate *eval.MaintState
			var err error
			ans, st, mstate, err = eval.EvalPlanCapture(ctx, p, snap.db, rp.opts)
			evalDur = rp.end(es)
			if err != nil {
				return err
			}
			rp.store(q, key, p, cache.Result{Answer: ans, Stats: st}, mstate)
		}
		xs := rp.begin("extract", root, i)
		tuples := ans.Tuples()
		rows := make([][]int, len(tuples))
		for k, t := range tuples {
			rows[k] = renderRow(t, snap.db)
		}
		inner += rp.end(xs)
		ens := rp.begin("server.encode", root, i)
		_, _ = json.Marshal(struct {
			Answer [][]int `json:"answer"`
			Count  int     `json:"count"`
		}{rows, len(rows)})
		d := rp.end(ens)
		inner += d
		rp.res.encode = append(rp.res.encode, d)
	}
	inner += evalDur
	if !cached {
		rp.countEval(route, evalDur, st)
	}
	rp.end(root)

	body := requestBody(q, o)
	hs := rp.begin("server.handler", -1, i)
	rec := httptest.NewRecorder()
	rp.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
	hd := rp.end(hs)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("in-process handler: status %d: %s", rec.Code, rec.Body.String())
	}
	if i >= 0 {
		rp.res.handler = append(rp.res.handler, hd)
		rp.res.overhead = append(rp.res.overhead, hd-inner)
		if o.kind == opQuery && bytes.Contains(rec.Body.Bytes(), []byte(`"result_cached":true`)) {
			rp.res.spans[hs].Name = "server.handler.hit"
			rp.res.handlerHit = append(rp.res.handlerHit, hd)
		}
	}
	return nil
}

func renderRow(t relation.Tuple, db *database.Database) []int {
	row := make([]int, len(t))
	for j, v := range t {
		row[j] = db.Value(v)
	}
	return row
}

// store caches a fresh result and registers the churn metadata bvqd
// registers for a compiled run.
func (rp *replayer) store(q *query, key string, p *plan.Plan, res cache.Result, state *eval.MaintState) {
	rp.results.Put(key, res)
	t := &cache.Tracked{Key: key, Engine: "compiled", Query: q.text, Opts: rp.opts}
	if p.Maint != nil {
		t.Footprint, t.Plan, t.State = p.Maint.Rels, p, state
	}
	rp.index.Register(q.db, rp.dbs[q.db].fp, t)
}

func (rp *replayer) countEval(route string, d time.Duration, st *eval.Stats) {
	rp.res.evalBusy = append(rp.res.evalBusy, d)
	if route == "sparse" {
		rp.res.sparseNS += int64(d)
		rp.res.sparseN++
	} else {
		rp.res.denseNS += int64(d)
		rp.res.denseN++
	}
	rp.res.evals++
	if st != nil {
		rp.res.work.SubformulaEvals += st.SubformulaEvals
		rp.res.work.FixIterations += st.FixIterations
		rp.res.work.DeltaTuples += st.DeltaTuples
		rp.res.work.TuplesTouched += st.TuplesTouched
		rp.res.work.RepSwitches += st.RepSwitches
		if st.AcyclicFastPath > 0 {
			rp.res.acyclic++
		}
	}
}

// update replays one update batch: database.Apply, then the result-cache
// triage bvqd performs over cache.Index.Rotate (carry disjoint entries,
// maintain eligible ones by delta restart, drop the rest), then the same
// batch through the handler.
func (rp *replayer) update(i int, u update) error {
	var req server.UpdateRequest
	if err := json.Unmarshal(u.body, &req); err != nil {
		return err
	}
	var ups []database.Update
	for _, e := range req.Updates {
		up := database.Update{Relation: e.Relation}
		for _, row := range e.Insert {
			up.Insert = append(up.Insert, relation.Tuple(row))
		}
		for _, row := range e.Delete {
			up.Delete = append(up.Delete, relation.Tuple(row))
		}
		ups = append(ups, up)
	}
	root := rp.begin("op", -1, i)
	old := rp.dbs[u.db]
	as := rp.begin("database.Apply", root, i)
	next, delta, err := old.db.Apply(ups)
	rp.res.apply = append(rp.res.apply, rp.end(as))
	if err != nil {
		return err
	}
	snap := snapshot{next, next.Fingerprint()}
	ts := rp.begin("cache.triage", root, i)
	changed := delta.Relations()
	for _, t := range rp.index.Rotate(u.db, snap.fp) {
		res, live := rp.results.Get(t.Key)
		if !live {
			continue
		}
		rp.results.Remove(t.Key)
		switch {
		case !t.Overlaps(changed):
		case t.Plan != nil && t.State != nil && eval.CanMaintain(t.Plan, delta):
			ms := rp.begin("eval.maintain", ts, i)
			ans, st, state, err := eval.EvalPlanMaintained(context.Background(), t.Plan, next, t.Opts, t.State)
			rp.res.maintain = append(rp.res.maintain, rp.end(ms))
			if err != nil {
				continue
			}
			res, t.State = cache.Result{Answer: ans, Stats: st}, state
		default:
			continue
		}
		t.Key = cache.ResultKey(snap.fp, t.Engine, t.Opts, t.Query)
		rp.results.Put(t.Key, res)
		rp.index.Register(u.db, snap.fp, t)
	}
	rp.end(ts)
	rp.dbs[u.db] = snap
	rp.end(root)

	hs := rp.begin("server.handler", -1, i)
	rec := httptest.NewRecorder()
	rp.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/db/"+u.db+"/update", bytes.NewReader(u.body)))
	rp.end(hs)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("in-process update handler: status %d: %s", rec.Code, rec.Body.String())
	}
	return nil
}

// selfTimes sums each layer's self time: a span's duration minus the time
// its children cover (children are sequential, so their durations add).
func (r *replayResult) selfTimes() {
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range r.spans {
		r.self[spanLayer[s.Name]] += time.Duration(s.End - s.Start - child[i])
	}
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// routerHop sends the same sample of warmed queries through the router and
// directly to the replica that owns each on the ring, alternating which
// goes first, and returns the median per-request difference in µs.
func routerHop(ctx context.Context, w *workload, f *fleet, conns int) (float64, error) {
	if f.router == nil {
		return 0, nil
	}
	var members []string
	for _, p := range f.replicas {
		members = append(members, p.url)
	}
	ring := router.NewRing(router.DefaultVnodes, members)
	c := newClient(f.router.url, w, conns)
	defer c.close()
	timeOne := func(base string, body []byte) (time.Duration, error) {
		start := time.Now()
		r := record{count: -1}
		c.base = base
		c.doQuery(ctx, &r, body)
		if r.err != "" {
			return 0, fmt.Errorf("router hop sample: %s", r.err)
		}
		return time.Since(start), nil
	}
	var diffs []time.Duration
	for i := 0; i < min(400, len(w.pop)); i++ {
		q := &w.pop[i]
		body := requestBody(q, op{kind: opQuery, q: i})
		owner := ring.Owner(router.QueryKey(q.db, q.text))
		var routed, direct time.Duration
		var err error
		if i%2 == 0 {
			if routed, err = timeOne(f.router.url, body); err == nil {
				direct, err = timeOne(owner, body)
			}
		} else {
			if direct, err = timeOne(owner, body); err == nil {
				routed, err = timeOne(f.router.url, body)
			}
		}
		if err != nil {
			return 0, err
		}
		diffs = append(diffs, routed-direct)
	}
	return float64(percentile(diffs, 0.5).Nanoseconds()) / 1000, nil
}
