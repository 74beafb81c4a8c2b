// Command perfbench is the repository's serving benchmark. It generates a
// workload's databases, query texts and update batches from a seed, boots
// real bvqd (and, for routed-hot, bvqrouter) processes on loopback, drives
// an open-loop Poisson phase and a closed-loop capacity phase, checks every
// answer against an oracle, and prints the end-to-end metrics. With
// -trace 1 it also replays the traffic through each layer's public calls
// in-process, writes the spans, and prints the per-layer metrics.
//
// Run it through perfbench/run.sh from the repository root, which builds
// the binaries first:
//
//	bash perfbench/run.sh --workload routed-hot --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct": …, "attempted": …, "failed": …, "metrics": {…}}. A wrong
// answer makes the exit status 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Server sizes, passed explicitly so the stamp records them and the traffic
// assertions compare against them.
const (
	planCache   = 1024
	resultCache = 4096
)

type metric struct {
	name  string
	value float64
	unit  string
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	bin, out string
}

func main() {
	var o options
	var traceN int
	flag.StringVar(&o.workload, "workload", "", "routed-hot, cold-eval or churn")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: databases, queries, popularity, updates and arrivals derive from it")
	flag.IntVar(&o.seconds, "seconds", 30, "measured seconds per run (open loop 60%, closed loop 40%)")
	flag.IntVar(&traceN, "trace", 0, "1: also run the traced replay and print per-layer metrics instead of end-to-end ones")
	flag.StringVar(&o.bin, "bin", ".bench_build/bin", "directory holding bvqd and bvqrouter")
	flag.StringVar(&o.out, "out", ".bench_build/run", "directory for databases, logs and span files")
	flag.Parse()
	o.trace = traceN == 1

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		stopAll()
		os.Exit(1)
	}()

	code, err := run(o)
	stopAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// fleet is the set of processes one set-up started.
type fleet struct {
	replicas []*proc
	router   *proc
	target   string // base URL clients send to
}

func (f *fleet) procs() []*proc {
	ps := append([]*proc(nil), f.replicas...)
	if f.router != nil {
		ps = append(ps, f.router)
	}
	return ps
}

func (f *fleet) stop() {
	for _, p := range f.procs() {
		p.stop()
	}
}

// writeDBs writes every database of w into dir and returns the -db flags.
func writeDBs(w *workload, dir string) ([]string, error) {
	var flags []string
	for _, name := range w.dbs {
		path := filepath.Join(dir, name+".db")
		if err := os.WriteFile(path, []byte(w.graphs[name].text()), 0o644); err != nil {
			return nil, err
		}
		flags = append(flags, "-db", name+"="+path)
	}
	return flags, nil
}

// startFleet boots the workload's processes and waits until they serve:
// /healthz on every bvqd, and for routed-hot a router reporting both
// replicas healthy.
func startFleet(w *workload, o options, dir string, traceBuffer int) (*fleet, error) {
	dbFlags, err := writeDBs(w, dir)
	if err != nil {
		return nil, err
	}
	args := append(dbFlags, "-plan-cache", fmt.Sprint(planCache), "-result-cache", fmt.Sprint(resultCache),
		"-trace-buffer", fmt.Sprint(traceBuffer))
	f := &fleet{}
	n := 1
	if w.routed {
		n = 2
	}
	for i := 0; i < n; i++ {
		p, err := startProc(fmt.Sprintf("bvqd-%d", i), filepath.Join(o.bin, "bvqd"), args, filepath.Join(dir, fmt.Sprintf("bvqd-%d.log", i)))
		if err != nil {
			f.stop()
			return nil, err
		}
		f.replicas = append(f.replicas, p)
	}
	for _, p := range f.replicas {
		if err := p.waitReady("/healthz", func([]byte) bool { return true }); err != nil {
			f.stop()
			return nil, err
		}
	}
	f.target = f.replicas[0].url
	if w.routed {
		rargs := []string{}
		for _, p := range f.replicas {
			rargs = append(rargs, "-replica", p.url)
		}
		p, err := startProc("bvqrouter", filepath.Join(o.bin, "bvqrouter"), rargs, filepath.Join(dir, "bvqrouter.log"))
		if err != nil {
			f.stop()
			return nil, err
		}
		f.router = p
		ready := func(body []byte) bool {
			var h struct{ Healthy, Configured int }
			return json.Unmarshal(body, &h) == nil && h.Healthy == n && h.Configured == n
		}
		if err := p.waitReady("/healthz", ready); err != nil {
			f.stop()
			return nil, err
		}
		f.target = p.url
	}
	return f, nil
}

// warmUp answers every population query once, over conns connections.
func warmUp(ctx context.Context, c *client, w *workload, conns int) []record {
	recs := make([]record, len(w.pop))
	var wg sync.WaitGroup
	next := make(chan int)
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				r := record{op: -1 - i, kind: opQuery, q: i, count: -1}
				r.due, r.sent = time.Now(), time.Now()
				c.doQuery(ctx, &r, requestBody(&w.pop[i], op{kind: opQuery, q: i}))
				r.done = time.Now()
				recs[i] = r
			}
		}()
	}
	for i := range w.pop {
		next <- i
	}
	close(next)
	wg.Wait()
	return recs
}

// setUp is one timed set-up: input generation, database files, processes
// until they serve, and cache warm-up.
func setUp(ctx context.Context, o options, dir string, conns, traceBuffer int) (*workload, *fleet, []record, time.Duration, error) {
	start := time.Now()
	w, err := newWorkload(o.workload, o.seed)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	f, err := startFleet(w, o, dir, traceBuffer)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	var warm []record
	if w.warm {
		c := newClient(f.target, w, conns)
		warm = warmUp(ctx, c, w, conns)
		c.close()
	}
	return w, f, warm, time.Since(start), nil
}

// segments is the number of open-loop/closed-loop segment pairs a timed
// run alternates through. Each metric's samples then spread over the whole
// run, and query latency and capacity are medians over the segments: a
// stall of the shared host, or a slow minute, lands in a few segments and
// does not move the result, while a change that moves every segment does.
const segments = 10

// segment is one open-loop slice of the arrival schedule followed by one
// closed-loop slice.
type segment struct {
	open      openResult
	closed    []record
	closedDur time.Duration
	steal     float64 // the host's steal share while the segment ran
}

// phaseResult is one measured run of traffic on one fleet.
type phaseResult struct {
	segs    []segment
	before  []scrape
	after   []scrape
	routerB map[string]float64
	routerA map[string]float64
}

func (pr *phaseResult) openRecs() []record {
	var out []record
	for i := range pr.segs {
		out = append(out, pr.segs[i].open.recs...)
	}
	return out
}

func (pr *phaseResult) closedRecs() []record {
	var out []record
	for i := range pr.segs {
		out = append(out, pr.segs[i].closed...)
	}
	return out
}

func scrapeAll(f *fleet) ([]scrape, map[string]float64, error) {
	var out []scrape
	for _, p := range f.replicas {
		s, err := takeScrape(p.url)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, s)
	}
	var rm map[string]float64
	if f.router != nil {
		var err error
		if rm, err = scrapeMetrics(f.router.url); err != nil {
			return nil, nil, err
		}
	}
	return out, rm, nil
}

// measure alternates open-loop and closed-loop segments: segment k sends
// the arrivals of the k-th tenth of the open-loop schedule (openDur long)
// at their due times, then — when closedDur > 0 — runs the closed loop for
// a tenth of closedDur. Operations are taken from the sequence in the order
// the segments run.
func measure(ctx context.Context, c *client, f *fleet, at []time.Duration, openDur, closedDur time.Duration, conns int) (phaseResult, error) {
	var pr phaseResult
	var err error
	if pr.before, pr.routerB, err = scrapeAll(f); err != nil {
		return pr, err
	}
	next := 0
	for k := time.Duration(0); k < segments; k++ {
		lo, hi := openDur*k/segments, openDur*(k+1)/segments
		var seg []time.Duration
		for _, t := range at {
			if t >= lo && t < hi {
				seg = append(seg, t-lo)
			}
		}
		var s segment
		c.w.gen.at(next + len(seg)) // draw the segment's operations before its clock starts
		steal0, total0 := cpuTimes()
		s.open = openLoop(ctx, c, next, seg, hi-lo, conns)
		next += len(seg)
		if s.open.abandoned > 0 {
			return pr, fmt.Errorf("the server fell behind the offered rate: %d operations still queued %v after the schedule ended",
				s.open.abandoned, phaseGrace)
		}
		if closedDur > 0 {
			s.closedDur = closedDur / segments
			s.closed, next = closedLoop(ctx, c, next, s.closedDur, conns)
		}
		steal1, total1 := cpuTimes()
		s.steal = ratio(float64(steal1-steal0), float64(total1-total0))
		pr.segs = append(pr.segs, s)
	}
	if pr.after, pr.routerA, err = scrapeAll(f); err != nil {
		return pr, err
	}
	return pr, nil
}

func run(o options) (int, error) {
	if o.seconds < 1 {
		return 2, fmt.Errorf("-seconds must be at least 1")
	}
	if _, err := newWorkload(o.workload, o.seed); err != nil {
		return 2, err
	}
	for _, b := range []string{"bvqd", "bvqrouter"} {
		if _, err := os.Stat(filepath.Join(o.bin, b)); err != nil {
			return 2, fmt.Errorf("missing %s binary (build with perfbench/run.sh): %w", b, err)
		}
	}
	// The reference evaluator must agree with bottomup before it may judge
	// the server.
	if err := crossCheck(o.seed); err != nil {
		return 2, err
	}
	dir := filepath.Join(o.out, fmt.Sprintf("%s-seed%d-trace%d", o.workload, o.seed, map[bool]int{false: 0, true: 1}[o.trace]))
	if err := os.RemoveAll(dir); err != nil {
		return 2, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 2, err
	}
	conns := runtime.NumCPU()
	ctx := context.Background()

	// Set up several times and keep the last fleet: setup_s is the median.
	reps := 5
	if o.trace {
		reps = 1
	}
	var (
		w       *workload
		f       *fleet
		setups  []float64
		checked []record
	)
	for i := 0; i < reps; i++ {
		var warm []record
		var d time.Duration
		var err error
		w, f, warm, d, err = setUp(ctx, o, dir, conns, 0)
		if err != nil {
			return 1, err
		}
		setups = append(setups, d.Seconds())
		checked = append(checked, verify(w, warm)...)
		if i < reps-1 {
			f.stop()
		}
	}

	openDur := time.Duration(float64(o.seconds) * 0.6 * float64(time.Second))
	closedDur := time.Duration(float64(o.seconds)*float64(time.Second)) - openDur
	at := arrivalsWithin(o.seed, w.rate, openDur)
	if err := describeTraffic(w, at); err != nil {
		return 2, err
	}

	// The client shares the host's CPUs with the servers: fewer client
	// collections while the clock runs leave less of its own noise in the
	// figures.
	gc := debug.SetGCPercent(400)
	steal0, total0 := cpuTimes()
	c := newClient(f.target, w, conns)
	pr, err := measure(ctx, c, f, at, openDur, closedDur, conns)
	c.close()
	steal1, total1 := cpuTimes()
	debug.SetGCPercent(gc)
	if err != nil {
		return 1, err
	}
	rss := 0.0
	for _, p := range f.procs() {
		mb, err := p.peakRSSMB()
		if err != nil {
			return 1, err
		}
		rss += mb
	}
	var replicaPorts []int
	for _, p := range f.replicas {
		replicaPorts = append(replicaPorts, p.port)
	}
	timeWait := timeWaitSockets(replicaPorts)
	stamp := stampOf(o, w, f, conns, at)
	// The share of the host's CPU time taken by the hypervisor while the
	// clock ran: runs with a high share ran on a contended machine.
	stamp["host_steal_share"] = ratio(float64(steal1-steal0), float64(total1-total0))

	for i := range pr.segs {
		verify(w, pr.segs[i].open.recs)
		verify(w, pr.segs[i].closed)
	}
	checked = append(checked, pr.openRecs()...)
	checked = append(checked, pr.closedRecs()...)

	var out []metric
	if o.trace {
		hop, err := routerHop(ctx, w, f, conns)
		if err != nil {
			return 1, err
		}
		f.stop()
		rep, err := replay(w, o, dir, at)
		if err != nil {
			return 1, err
		}
		// The first half of the open-loop phase again, with the flight
		// recorder on, for the stage histograms and the tracing overhead.
		tw, tf, warm, _, err := setUp(ctx, o, dir, conns, 256)
		if err != nil {
			return 1, err
		}
		checked = append(checked, verify(tw, warm)...)
		tc := newClient(tf.target, tw, conns)
		half := at[:sort.Search(len(at), func(i int) bool { return at[i] >= openDur/2 })]
		tpr, err := measure(ctx, tc, tf, half, openDur/2, 0, conns)
		tc.close()
		tf.stop()
		if err != nil {
			return 1, err
		}
		for i := range tpr.segs {
			verify(tw, tpr.segs[i].open.recs)
		}
		checked = append(checked, tpr.openRecs()...)
		out = layerMetrics(w, &pr, &tpr, rep, hop, timeWait)
	} else {
		f.stop()
		out = endToEnd(w, &pr, setups, rss)
	}
	attempted, failed, wrong := tally(checked)
	if o.trace {
		out = append(out, metric{"bench.fail_frac", float64(failed) / float64(max(attempted, 1)), "ratio"})
	}
	for _, e := range firstErrors(checked, 5) {
		fmt.Fprintln(os.Stderr, "perfbench: failed operation:", e)
	}
	stampJSON, _ := json.Marshal(stamp)
	fmt.Println("stamp " + string(stampJSON))
	values := map[string]any{}
	for _, m := range out {
		fmt.Printf("%-34s %14.4f %s\n", m.name, m.value, m.unit)
		values[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	final, _ := json.Marshal(map[string]any{"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": values})
	fmt.Println(string(final))
	if wrong > 0 {
		return 1, fmt.Errorf("%d wrong answers", wrong)
	}
	return 0, nil
}

// arrivalsWithin returns the Poisson arrivals at rate that fall inside d.
func arrivalsWithin(seed uint64, rate float64, d time.Duration) []time.Duration {
	all := arrivals(seed, rate, int(rate*d.Seconds()*1.5)+16)
	n := sort.Search(len(all), func(i int) bool { return all[i] > d })
	return all[:n]
}

// tally counts attempted, failed and wrong operations among verified
// records. A failure is a non-2xx response, a transport or protocol error,
// a bad stream trailer, a dropped arrival or a wrong answer. A wrong answer
// is a 200 response that does not match the oracle or is malformed,
// truncated or carries an error (record.bad).
func tally(recs []record) (attempted, failed, wrong int) {
	for _, r := range recs {
		attempted++
		if !r.correct {
			failed++
			if r.bad || (r.err == "" && r.status == 200) {
				wrong++
			}
		}
	}
	return
}

func firstErrors(recs []record, n int) []string {
	var out []string
	for _, r := range recs {
		if !r.correct && len(out) < n {
			msg := r.err
			if msg == "" {
				msg = fmt.Sprintf("wrong answer (%d rows, count %d)", r.rows, r.count)
			}
			out = append(out, fmt.Sprintf("op %d (%s): %s", r.op, opKindNames[r.kind], msg))
		}
	}
	return out
}

// describeTraffic asserts and prints the generated traffic's properties.
func describeTraffic(w *workload, at []time.Duration) error {
	distinct := len(w.pop)
	switch w.name {
	case "routed-hot", "churn":
		if distinct > resultCache {
			return fmt.Errorf("%s: %d distinct texts must fit the %d-entry result cache", w.name, distinct, resultCache)
		}
	case "cold-eval":
		if distinct < 4*resultCache || distinct < 4*planCache {
			return fmt.Errorf("cold-eval: %d distinct texts must far exceed the plan (%d) and result (%d) caches", distinct, planCache, resultCache)
		}
	}
	var kinds [3]int
	for i := range at {
		kinds[w.gen.at(i).kind]++
	}
	n := float64(len(at))
	fmt.Fprintf(os.Stderr, "traffic %s: %d distinct query texts (plan cache %d, result cache %d); open loop %d ops at %.0f/s: stream share %.3f, write share %.3f\n",
		w.name, distinct, planCache, resultCache, len(at), w.rate, float64(kinds[opStream])/n, float64(kinds[opUpdate])/n)
	for _, name := range w.dbs {
		g := w.graphs[name]
		fmt.Fprintf(os.Stderr, "database %s: domain %d, %d E edges, %d labels\n", name, g.n, len(g.edge), len(g.names))
	}
	return nil
}

// stampOf records what a result depends on: host, toolchain, revision,
// exact process flags, and the workload's rate, limit and seed.
func stampOf(o options, w *workload, f *fleet, conns int, at []time.Duration) map[string]any {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	flags := map[string]string{}
	for _, p := range f.procs() {
		flags[p.name] = strings.Join(p.args, " ")
	}
	return map[string]any{
		"workload": w.name, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"vcs_revision": rev, "connections": conns,
		"offered_rate_ops_s": w.rate, "latency_limit_ms": w.sloMS, "latency_limit_reason": w.slo,
		"open_loop_ops": len(at), "flags": flags,
	}
}
