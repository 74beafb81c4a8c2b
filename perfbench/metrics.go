package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/server"
)

// verify checks every answered read in recs against the oracle and sets
// record.correct; update records were judged when answered. A read matches
// when its rows, row count and reported full count equal the oracle's
// answer window in some snapshot the request could have observed.
func verify(w *workload, recs []record) []record {
	byQ := map[int][]int{}
	for i := range recs {
		r := &recs[i]
		if r.kind == opUpdate {
			continue
		}
		r.correct = false
		if r.err == "" && r.status == 200 {
			byQ[r.q] = append(byQ[r.q], i)
		}
	}
	work := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var oracleErr error
	for k := 0; k < runtime.NumCPU(); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range work {
				memo := map[int]answer{}
				for _, i := range byQ[q] {
					r := &recs[i]
					for s := r.lo; s <= r.hi && !r.correct; s++ {
						ans, ok := memo[s]
						if !ok {
							var err error
							if ans, err = oracleAnswer(w.snapshot(w.pop[q].db, s), &w.pop[q]); err != nil {
								mu.Lock()
								oracleErr = err
								mu.Unlock()
								break
							}
							memo[s] = ans
						}
						h, n := ans.window(r.offset, r.limit)
						r.correct = h == r.hash && n == r.rows && (r.count < 0 || r.count == ans.len())
					}
				}
			}
		}()
	}
	for q := range byQ {
		work <- q
	}
	close(work)
	wg.Wait()
	if oracleErr != nil {
		// The oracle itself failed: nothing it did not check may pass.
		for i := range recs {
			if recs[i].kind != opUpdate {
				recs[i].correct = false
			}
		}
		fmt.Fprintln(os.Stderr, "perfbench: oracle error:", oracleErr)
	}
	return recs
}

// openStats digests an open-loop phase. Read latency runs from the due
// time, so a stall is charged to every request queued behind it. Update
// latency and time to the first answer line run from the send: batches are
// serialised as one logical writer, and the first line measures the
// stream's preprocessing, neither of which should inherit the wait for a
// free connection behind unrelated reads.
type openStats struct {
	reads, updates, ttft []time.Duration
	readsAttempted       int
	readsInSLO           int
}

// digestOpen collects a phase's latency samples. A failed, refused or
// dropped operation enters them at failPenalty, so a change that sheds or
// times out its slowest requests pushes the percentiles up, not down.
func digestOpen(w *workload, recs []record) openStats {
	var s openStats
	limit := time.Duration(w.sloMS * float64(time.Millisecond))
	for _, r := range recs {
		ok := r.err == "" && r.status == 200
		if r.kind == opUpdate {
			if ok {
				s.updates = append(s.updates, r.done.Sub(r.sent))
			} else {
				s.updates = append(s.updates, failPenalty)
			}
			continue
		}
		s.readsAttempted++
		if !ok {
			s.reads = append(s.reads, failPenalty)
			if r.kind == opStream {
				s.ttft = append(s.ttft, failPenalty)
			}
			continue
		}
		s.reads = append(s.reads, r.latency())
		if r.correct && r.latency() <= limit {
			s.readsInSLO++
		}
		if r.kind == opStream && !r.first.IsZero() {
			s.ttft = append(s.ttft, r.first.Sub(r.sent))
		}
	}
	return s
}

// failPenalty is the latency a failed operation is charged: the longest an
// open-loop phase waits for an answer.
const failPenalty = phaseGrace

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// runStats gathers a timed run's open-loop latency samples, over the whole
// run and per segment.
type runStats struct {
	open openStats
	segs []openStats
}

func digestRun(w *workload, pr *phaseResult) runStats {
	rs := runStats{open: digestOpen(w, pr.openRecs())}
	for i := range pr.segs {
		rs.segs = append(rs.segs, digestOpen(w, pr.segs[i].open.recs))
	}
	return rs
}

// endToEnd computes the metrics a user of the system sees. Query latency
// is timed from the due time and capacity by the clock, so a stall of the
// host would move them: each is taken per segment and reported as the
// median over the run's segments, which a stall or a slow minute in a few
// segments does not move while a change that moves every segment does.
// Update latency and time to the first line are timed from the send, so a
// stall touches only the few operations in flight; they are taken over all
// the open loop's samples, too few per segment for a firm median. Every
// latency here is a median: the tails (p90, p99) of a shared host's runs
// spread too far from one run to the next to gate on, and the traced run
// reports them instead (tail.* in layerMetrics). SLO attainment counts the
// whole open loop.
func endToEnd(w *workload, pr *phaseResult, setups []float64, rss float64) []metric {
	rs := digestRun(w, pr)
	if len(rs.open.reads) < 1000 || len(rs.open.updates) < 100 || len(rs.open.ttft) < 100 {
		fmt.Fprintf(os.Stderr, "perfbench: warning: thin sample: %d queries, %d updates, %d streams (want 1000/100/100)\n",
			len(rs.open.reads), len(rs.open.updates), len(rs.open.ttft))
	}
	var reads, rates []float64
	for i := range pr.segs {
		reads = append(reads, ms(percentile(rs.segs[i].reads, 0.50)))
		ok := 0
		for _, r := range pr.segs[i].closed {
			if r.correct {
				ok++
			}
		}
		rates = append(rates, float64(ok)/pr.segs[i].closedDur.Seconds())
		fmt.Fprintf(os.Stderr, "segment %d: query_p50_ms %.4f capacity_ops_s %.1f host_steal_share %.4f\n",
			i, reads[i], rates[i], pr.segs[i].steal)
	}
	return []metric{
		{"setup_s", median(setups), "s"},
		{"query_p50_ms", median(reads), "ms"},
		{"slo_attainment", float64(rs.open.readsInSLO) / float64(max(rs.open.readsAttempted, 1)), "ratio"},
		{"capacity_ops_s", median(rates), "ops/s"},
		{"update_p50_ms", ms(percentile(rs.open.updates, 0.50)), "ms"},
		{"ttft_p50_ms", ms(percentile(rs.open.ttft, 0.50)), "ms"},
		{"server_rss_mb", rss, "MiB"},
	}
}

// statsDelta sums f(after) − f(before) over the replicas.
func statsDelta(pr *phaseResult, f func(*server.StatsResponse) int64) float64 {
	d := int64(0)
	for i := range pr.after {
		d += f(&pr.after[i].stats) - f(&pr.before[i].stats)
	}
	return float64(d)
}

func sampleDelta(pr *phaseResult, key string) float64 {
	d := 0.0
	for i := range pr.after {
		d += pr.after[i].samples[key] - pr.before[i].samples[key]
	}
	return d
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func usOf(ds []time.Duration, q float64) float64 {
	return float64(percentile(ds, q).Nanoseconds()) / 1000
}

// layerMetrics computes the per-layer metrics: T from the timed phases'
// /stats, /metrics and client records; R from the replay, the router-hop
// sample and the traced open-loop repeat.
func layerMetrics(w *workload, pr, traced *phaseResult, rep *replayResult, hopUS float64, timeWait int) []metric {
	get := func(f func(*server.StatsResponse) int64) float64 { return statsDelta(pr, f) }
	queries := get(func(s *server.StatsResponse) int64 { return s.Queries })
	updates := get(func(s *server.StatsResponse) int64 { return s.Churn.Updates })
	planH := get(func(s *server.StatsResponse) int64 { return s.PlanCache.Hits })
	planM := get(func(s *server.StatsResponse) int64 { return s.PlanCache.Misses })
	resH := get(func(s *server.StatsResponse) int64 { return s.ResultCache.Hits })
	resM := get(func(s *server.StatsResponse) int64 { return s.ResultCache.Misses })

	var loopback []time.Duration
	for _, r := range pr.closedRecs() {
		if r.kind == opQuery && r.correct {
			loopback = append(loopback, r.done.Sub(r.sent)-time.Duration(r.elapsedMS*float64(time.Millisecond)))
		}
	}
	var lateness []time.Duration
	dropped := 0
	for i := range pr.segs {
		lateness = append(lateness, pr.segs[i].open.lateness...)
		dropped += pr.segs[i].open.dropped
	}
	tracedOpen := digestOpen(w, traced.openRecs())

	rs := digestRun(w, pr)
	out := []metric{
		{"tail.query_p99_ms", ms(percentile(rs.open.reads, 0.99)), "ms"},
		{"tail.update_p90_ms", ms(percentile(rs.open.updates, 0.90)), "ms"},
		{"tail.ttft_p90_ms", ms(percentile(rs.open.ttft, 0.90)), "ms"},
		{"parser.parse_us", usOf(rep.parse, 0.5), "us"},
		{"plan.compile_us", usOf(rep.compile, 0.5), "us"},
		{"plan.nodes_per_query", ratio(float64(rep.nodes), float64(rep.plans)), "count"},
		{"cache.plan_hit_ratio", ratio(planH, planH+planM), "ratio"},
		{"cache.result_hit_ratio", ratio(resH, resH+resM), "ratio"},
		{"cache.result_evictions", get(func(s *server.StatsResponse) int64 { return s.ResultCache.Evictions }), "count"},
		{"cache.coalesced_ratio", ratio(get(func(s *server.StatsResponse) int64 { return s.Coalesced }), queries), "ratio"},
		{"cache.carried_per_update", ratio(get(func(s *server.StatsResponse) int64 { return s.Churn.Carried }), updates), "count"},
		{"cache.maintained_per_update", ratio(get(func(s *server.StatsResponse) int64 { return s.Churn.Maintained }), updates), "count"},
		{"cache.invalidated_per_update", ratio(get(func(s *server.StatsResponse) int64 { return s.Churn.Invalidated }), updates), "count"},
		{"database.apply_us", usOf(rep.apply, 0.5), "us"},
		{"eval.busy_ms_p50", ms(percentile(rep.evalBusy, 0.5)), "ms"},
		{"eval.busy_ms_p99", ms(percentile(rep.evalBusy, 0.99)), "ms"},
		{"eval.dense_ms", ratio(float64(rep.denseNS)/1e6, float64(rep.denseN)), "ms"},
		{"eval.sparse_ms", ratio(float64(rep.sparseNS)/1e6, float64(rep.sparseN)), "ms"},
		{"eval.dense_share", ratio(float64(rep.denseNS), float64(rep.denseNS+rep.sparseNS)), "ratio"},
		{"eval.subformula_evals", ratio(float64(rep.work.SubformulaEvals), float64(rep.evals)), "count"},
		{"eval.fix_iterations", ratio(float64(rep.work.FixIterations), float64(rep.evals)), "count"},
		{"eval.delta_tuples", ratio(float64(rep.work.DeltaTuples), float64(rep.evals)), "count"},
		{"eval.tuples_touched", ratio(float64(rep.work.TuplesTouched), float64(rep.evals)), "count"},
		{"eval.rep_switches", ratio(float64(rep.work.RepSwitches), float64(rep.evals)), "count"},
		{"eval.maintain_ms", ms(percentile(rep.maintain, 0.5)), "ms"},
		{"eval.first_tuple_us", usOf(rep.firstTuple, 0.5), "us"},
		{"queryopt.acyclic_share", ratio(float64(rep.acyclic), float64(rep.evals)), "ratio"},
		{"server.handler_us", usOf(rep.handler, 0.5), "us"},
		{"server.handler_hit_us", usOf(rep.handlerHit, 0.5), "us"},
		{"server.encode_us", usOf(rep.encode, 0.5), "us"},
		{"server.handler_overhead_us", usOf(rep.overhead, 0.5), "us"},
		{"server.loopback_us", usOf(loopback, 0.5), "us"},
	}
	for _, stage := range []string{"compile", "cache_lookup", "admission_wait", "eval", "extract", "stream_drain"} {
		sum := sampleDelta(traced, "bvqd_stage_seconds_sum{stage="+stage+"}")
		n := sampleDelta(traced, "bvqd_stage_seconds_count{stage="+stage+"}")
		out = append(out, metric{"server.stage." + stage + "_ms", ratio(sum*1000, n), "ms"})
	}
	retries := 0.0
	if pr.routerA != nil {
		retries = pr.routerA["bvqrouter_retries_total"] - pr.routerB["bvqrouter_retries_total"]
	}
	out = append(out,
		metric{"server.shed_ratio", ratio(get(func(s *server.StatsResponse) int64 { return s.Shed }), queries), "ratio"},
		metric{"server.timeout_ratio", ratio(get(func(s *server.StatsResponse) int64 { return s.Timeouts }), queries), "ratio"},
		metric{"router.hop_us", hopUS, "us"},
		metric{"router.ring_lookup_ns", rep.ringNS, "ns"},
		metric{"router.retries", retries, "count"},
		metric{"router.time_wait_sockets", float64(timeWait), "count"},
		metric{"bench.gen_lateness_p99_ms", ms(percentile(lateness, 0.99)), "ms"},
		metric{"bench.dropped_arrivals", float64(dropped), "count"},
		metric{"bench.replay_ops", float64(rep.ops), "count"},
		metric{"trace.overhead_ratio", ratio(ms(percentile(tracedOpen.reads, 0.5)), ms(percentile(rs.open.reads, 0.5))), "ratio"},
	)
	for _, l := range selfLayers {
		out = append(out, metric{"self." + l + "_us_per_op", ratio(float64(rep.self[l].Nanoseconds())/1000, float64(rep.ops)), "us"})
	}
	return out
}
