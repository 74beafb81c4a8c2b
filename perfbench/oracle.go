package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"

	"repro/internal/database"
	"repro/internal/eval"
	"repro/internal/parser"
)

// answer is a canonical query answer: rows of `arity` domain values,
// flattened, in lexicographic order (the order bvqd emits).
type answer struct {
	arity int
	rows  []int32
}

func (a answer) len() int {
	if a.arity == 0 {
		return 0
	}
	return len(a.rows) / a.arity
}

// window returns the hash and row count of rows [offset, offset+limit)
// (limit 0: to the end), as a client sees them.
func (a answer) window(offset, limit int) (uint64, int) {
	n := a.len()
	lo := min(offset, n)
	hi := n
	if limit > 0 {
		hi = min(n, lo+limit)
	}
	h := newRowHash()
	for i := lo; i < hi; i++ {
		for j := 0; j < a.arity; j++ {
			h.add(int(a.rows[i*a.arity+j]))
		}
	}
	return h.sum(), hi - lo
}

// rowHash hashes answer rows value by value; client and oracle feed it the
// same sequence.
type rowHash struct{ h uint64 }

func newRowHash() rowHash { return rowHash{h: 14695981039346656037} }

func (r *rowHash) add(v int) {
	x := uint32(v)
	for i := 0; i < 4; i++ {
		r.h ^= uint64(byte(x >> (8 * i)))
		r.h *= 1099511628211
	}
}

func (r *rowHash) sum() uint64 { return r.h }

// reference answers q over g with direct graph algorithms.
func reference(g *graph, q *query) answer {
	succ, pred := g.adjacency()
	A, B := g.label(q.a), g.label(q.b)
	var C []bool
	if q.t == tJoin3 {
		C = g.label(q.c)
	}
	unary := func(in []bool) answer {
		out := answer{arity: 1}
		for v, ok := range in {
			if ok {
				out.rows = append(out.rows, int32(v))
			}
		}
		return out
	}
	// backward closes seed under "a predecessor u with allow(u) joins".
	backward := func(seed []bool, allow func(int) bool) []bool {
		in := append([]bool(nil), seed...)
		var queue []int
		for v, ok := range in {
			if ok {
				queue = append(queue, v)
			}
		}
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, u := range pred[v] {
				if !in[u] && allow(u) {
					in[u] = true
					queue = append(queue, u)
				}
			}
		}
		return in
	}
	pairs := func(add func(emit func(x, y int))) answer {
		seen := map[[2]int]bool{}
		add(func(x, y int) { seen[[2]int{x, y}] = true })
		ps := make([][2]int, 0, len(seen))
		for p := range seen {
			ps = append(ps, p)
		}
		sort.Slice(ps, func(i, j int) bool {
			if ps[i][0] != ps[j][0] {
				return ps[i][0] < ps[j][0]
			}
			return ps[i][1] < ps[j][1]
		})
		out := answer{arity: 2, rows: make([]int32, 0, 2*len(ps))}
		for _, p := range ps {
			out.rows = append(out.rows, int32(p[0]), int32(p[1]))
		}
		return out
	}
	switch q.t {
	case tReach:
		seed := make([]bool, g.n)
		for v := range seed {
			seed[v] = A[v] || B[v]
		}
		return unary(backward(seed, func(int) bool { return true }))
	case tUntil:
		return unary(backward(A, func(u int) bool { return !B[u] }))
	case tSafe:
		// Greatest fixpoint: drop nodes left without a successor inside.
		in := make([]bool, g.n)
		cnt := make([]int, g.n)
		for v := range in {
			in[v] = !A[v] && !B[v]
		}
		for v := range in {
			for _, w := range succ[v] {
				if in[w] {
					cnt[v]++
				}
			}
		}
		var queue []int
		for v := range in {
			if in[v] && cnt[v] == 0 {
				in[v] = false
				queue = append(queue, v)
			}
		}
		for len(queue) > 0 {
			w := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, v := range pred[w] {
				if in[v] {
					cnt[v]--
					if cnt[v] == 0 {
						in[v] = false
						queue = append(queue, v)
					}
				}
			}
		}
		return unary(in)
	case tNbr:
		return pairs(func(emit func(x, y int)) {
			for x := 0; x < g.n; x++ {
				if A[x] {
					for _, y := range succ[x] {
						if !B[y] {
							emit(x, y)
						}
					}
				}
			}
		})
	case tJoin2, tJoin3:
		return pairs(func(emit func(x, y int)) {
			for z := 0; z < g.n; z++ {
				mid := A[z]
				if q.t == tJoin3 {
					mid = C[z]
				}
				if !mid {
					continue
				}
				for _, x := range pred[z] {
					if q.t == tJoin3 && !A[x] {
						continue
					}
					for _, y := range succ[z] {
						if B[y] {
							emit(x, y)
						}
					}
				}
			}
		})
	}
	panic("unknown template")
}

// bottomup answers q over db with the paper's Proposition 3.1 engine.
func bottomup(db *database.Database, q *query) (answer, error) {
	lq, err := parser.ParseQuery(q.text)
	if err != nil {
		return answer{}, err
	}
	set, _, err := eval.BottomUpContext(context.Background(), lq, db, nil)
	if err != nil {
		return answer{}, err
	}
	out := answer{arity: q.t.arity()}
	for _, t := range set.Tuples() {
		for _, v := range t {
			out.rows = append(out.rows, int32(db.Value(v)))
		}
	}
	return out, nil
}

// usesBottomUp reports whether the oracle answers t over g with bottomup
// (true) or the reference evaluator (false). Bottomup fills the full nᵏ
// space and runs every fixpoint stage: fine for width 2 on the shallow
// random graphs, but 1.9 s for one width-3 reachability fixpoint at n=256,
// beyond its dense-space limit at n=5000, and too slow on the churn chains,
// whose fixpoints run thirty stages for every (query, snapshot) pair. There
// the reference evaluator answers, and crossCheck ties it to bottomup on a
// small graph every run.
func usesBottomUp(g *graph, t tmpl) bool { return g.bottomupOracle && t.width() == 2 }

// state is one database snapshot the oracle answers against: the graph and,
// lazily, its parsed database for bottomup.
type state struct {
	g    *graph
	once sync.Once
	db   *database.Database
	err  error
}

func (s *state) database() (*database.Database, error) {
	s.once.Do(func() { s.db, s.err = database.Parse(s.g.text()) })
	return s.db, s.err
}

// oracleAnswer is the expected answer of q in snapshot s.
func oracleAnswer(s *state, q *query) (answer, error) {
	if usesBottomUp(s.g, q.t) {
		db, err := s.database()
		if err != nil {
			return answer{}, err
		}
		return bottomup(db, q)
	}
	return reference(s.g, q), nil
}

// crossCheck ties the reference evaluator to bottomup: every template, with
// several label choices, on a small random graph drawn from the run's seed,
// must get identical answers from both.
func crossCheck(seed uint64) error {
	rng := rand.New(rand.NewPCG(seed, 0xc0ffee))
	g := newGraph(28, labelNames("L", 5))
	g.randomEdges(rng, 45)
	g.randomLabels(rng, 0.3)
	db, err := database.Parse(g.text())
	if err != nil {
		return err
	}
	for t := tmpl(0); t < numTmpl; t++ {
		for i := 0; i < 4; i++ {
			q := &query{db: "check", t: t, a: g.names[rng.IntN(5)], b: g.names[rng.IntN(5)], c: g.names[rng.IntN(5)]}
			q.text = render(t, q.a, q.b, q.c, varSets[i%len(varSets)], fixNames[i%len(fixNames)])
			want, err := bottomup(db, q)
			if err != nil {
				return fmt.Errorf("cross-check %s: bottomup: %w", q.text, err)
			}
			got := reference(g, q)
			wh, wn := want.window(0, 0)
			gh, gn := got.window(0, 0)
			if wh != gh || wn != gn {
				return fmt.Errorf("cross-check %s: reference evaluator disagrees with bottomup (%d vs %d rows)", q.text, gn, wn)
			}
		}
	}
	return nil
}
