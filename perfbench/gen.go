package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strings"
	"sync"
)

// graph is one generated database: domain 0..n-1, a binary relation E and
// unary labels. Domain values equal domain indices, so wire rows and
// reference rows compare directly.
type graph struct {
	n      int
	edge   map[[2]int]bool
	names  []string // label relation names, parallel to lab
	lab    [][]bool // lab[l][v]: v carries label names[l]
	labIdx map[string]int
	// bottomupOracle: width-2 answers over this graph come from bottomup.
	bottomupOracle bool

	adjOnce    sync.Once // successor and predecessor lists, built on first use
	succ, pred [][]int
}

func newGraph(n int, names []string) *graph {
	g := &graph{n: n, edge: make(map[[2]int]bool), names: names, labIdx: make(map[string]int)}
	for i, name := range names {
		g.lab = append(g.lab, make([]bool, n))
		g.labIdx[name] = i
	}
	return g
}

func (g *graph) clone() *graph {
	c := &graph{n: g.n, edge: make(map[[2]int]bool, len(g.edge)), names: g.names, labIdx: g.labIdx, bottomupOracle: g.bottomupOracle}
	for e := range g.edge {
		c.edge[e] = true
	}
	for _, l := range g.lab {
		c.lab = append(c.lab, append([]bool(nil), l...))
	}
	return c
}

// adjacency returns successor and predecessor lists. A graph must not be
// mutated once its adjacency has been read.
func (g *graph) adjacency() (succ, pred [][]int) {
	g.adjOnce.Do(func() {
		g.succ = make([][]int, g.n)
		g.pred = make([][]int, g.n)
		for _, e := range g.sortedEdges() {
			g.succ[e[0]] = append(g.succ[e[0]], e[1])
			g.pred[e[1]] = append(g.pred[e[1]], e[0])
		}
	})
	return g.succ, g.pred
}

// label returns the member set of the named label.
func (g *graph) label(name string) []bool { return g.lab[g.labIdx[name]] }

// randomLabels gives every label independent members with probability p,
// at least one each (an empty relation would make some templates vacuous).
func (g *graph) randomLabels(rng *rand.Rand, p float64) {
	for _, l := range g.lab {
		for v := range l {
			l[v] = rng.Float64() < p
		}
		l[rng.IntN(g.n)] = true
	}
}

// randomEdges adds m distinct non-loop edges chosen uniformly.
func (g *graph) randomEdges(rng *rand.Rand, m int) {
	for len(g.edge) < m {
		a, b := rng.IntN(g.n), rng.IntN(g.n)
		if a != b {
			g.edge[[2]int{a, b}] = true
		}
	}
}

// chainEdges lays the domain out as `chains` long forward paths with a few
// short forward skips, so reachability fixpoints need many stages (deep
// recursion is what makes delta-restart maintenance pay off).
func (g *graph) chainEdges(rng *rand.Rand, chains int, skips int) {
	per := g.n / chains
	for c := 0; c < chains; c++ {
		for i := 0; i < per-1; i++ {
			g.edge[[2]int{c*per + i, c*per + i + 1}] = true
		}
	}
	for k := 0; k < skips; k++ {
		c := rng.IntN(chains)
		i := rng.IntN(per - 4)
		g.edge[[2]int{c*per + i, c*per + i + 2 + rng.IntN(3)}] = true
	}
}

// text renders the database in the bvqd file format.
func (g *graph) text() string {
	var b strings.Builder
	b.WriteString("domain = {")
	for v := 0; v < g.n; v++ {
		if v > 0 {
			b.WriteString(", ")
		}
		fmt.Fprint(&b, v)
	}
	b.WriteString("}\nE/2 = {")
	for i, e := range g.sortedEdges() {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %d)", e[0], e[1])
	}
	b.WriteString("}\n")
	for l, name := range g.names {
		fmt.Fprintf(&b, "%s/1 = {", name)
		first := true
		for v, in := range g.lab[l] {
			if in {
				if !first {
					b.WriteString(", ")
				}
				first = false
				fmt.Fprintf(&b, "(%d)", v)
			}
		}
		b.WriteString("}\n")
	}
	return b.String()
}

func (g *graph) sortedEdges() [][2]int {
	es := make([][2]int, 0, len(g.edge))
	for e := range g.edge {
		es = append(es, e)
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i][0] != es[j][0] {
			return es[i][0] < es[j][0]
		}
		return es[i][1] < es[j][1]
	})
	return es
}

// labelNames returns prefix0..prefix{k-1}.
func labelNames(prefix string, k int) []string {
	out := make([]string, k)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return out
}

// tmpl is a query template. Every template is a query the reference
// evaluator in oracle.go answers with plain graph code.
type tmpl uint8

const (
	tReach tmpl = iota // width 2 LFP (µ-calculus EF): x reaches an A∪B node
	tUntil             // width 2 LFP (µ-calculus EU): E[¬B U A]
	tSafe              // width 2 GFP (µ-calculus EG): an infinite path avoiding A∪B
	tNbr               // width 2 FO: edges from A into ¬B
	tJoin2             // width 3 acyclic CQ: 2-hop through an A node into B
	tJoin3             // width 3 acyclic CQ: 2-hop with A source, B target, C middle
	numTmpl
)

// width is the template's variable count (its Lᵏ class).
func (t tmpl) width() int {
	if t <= tNbr {
		return 2
	}
	return 3
}

// arity is the template's answer arity.
func (t tmpl) arity() int {
	if t <= tSafe {
		return 1
	}
	return 2
}

// varSets and fixNames vary the spelling of otherwise identical queries:
// distinct texts are distinct plan- and result-cache keys.
var (
	varSets  = [][3]string{{"x", "y", "z"}, {"u", "v", "w"}, {"p", "q", "r"}, {"a", "b", "c"}, {"s", "t", "o"}, {"i", "j", "k"}}
	fixNames = []string{"S", "T", "R", "Q"}
)

// query is one generated query text with the parameters that define its
// meaning.
type query struct {
	db      string
	t       tmpl
	a, b, c string // label relation names
	text    string
}

func render(t tmpl, a, b, c string, vs [3]string, fix string) string {
	x, y, z := vs[0], vs[1], vs[2]
	step := fmt.Sprintf("exists %s. (E(%s, %s) & exists %s. (%s = %s & %s(%s)))", y, x, y, x, x, y, fix, x)
	switch t {
	case tReach:
		return fmt.Sprintf("(%s). [lfp %s(%s). %s(%s) | %s(%s) | %s](%s)", x, fix, x, a, x, b, x, step, x)
	case tUntil:
		return fmt.Sprintf("(%s). [lfp %s(%s). %s(%s) | (!%s(%s) & %s)](%s)", x, fix, x, a, x, b, x, step, x)
	case tSafe:
		return fmt.Sprintf("(%s). [gfp %s(%s). !%s(%s) & !%s(%s) & %s](%s)", x, fix, x, a, x, b, x, step, x)
	case tNbr:
		return fmt.Sprintf("(%s, %s). E(%s, %s) & %s(%s) & !%s(%s)", x, y, x, y, a, x, b, y)
	case tJoin2:
		return fmt.Sprintf("(%s, %s). exists %s. (E(%s, %s) & E(%s, %s) & %s(%s) & %s(%s))", x, y, z, x, z, z, y, a, z, b, y)
	case tJoin3:
		return fmt.Sprintf("(%s, %s). exists %s. (E(%s, %s) & E(%s, %s) & %s(%s) & %s(%s) & %s(%s))", x, y, z, x, z, z, y, a, x, b, y, c, z)
	}
	panic("unknown template")
}

// mixEntry is one share of a workload's query population.
type mixEntry struct {
	db     string
	t      tmpl
	weight float64
}

// population draws `size` distinct query texts from the mix, with labels
// drawn from the named database's label pool `labels[db]`. Each mix entry
// gets its exact share of the texts (largest remainder), so the template
// mix — and with it what the population costs — does not change with the
// seed; the texts come out in random order. Texts are unique; the draw is
// a pure function of rng.
func population(rng *rand.Rand, size int, mix []mixEntry, labels map[string][]string) []query {
	total := 0.0
	for _, m := range mix {
		total += m.weight
	}
	quota := make([]int, len(mix))
	left := size
	for i, m := range mix {
		quota[i] = int(float64(size) * m.weight / total)
		left -= quota[i]
	}
	for ; left > 0; left-- {
		best := 0
		for i, m := range mix {
			ri := float64(size)*m.weight/total - float64(quota[i])
			rb := float64(size)*mix[best].weight/total - float64(quota[best])
			if ri > rb {
				best = i
			}
		}
		quota[best]++
	}
	seen := make(map[string]bool, size)
	out := make([]query, 0, size)
	for i, m := range mix {
		pool := labels[m.db]
		for n, attempts := 0, 0; n < quota[i]; attempts++ {
			if attempts > quota[i]*50 {
				panic(fmt.Sprintf("population: only %d distinct %v texts of %d", n, m.t, quota[i]))
			}
			a := pool[rng.IntN(len(pool))]
			b := pool[rng.IntN(len(pool))]
			c := pool[rng.IntN(len(pool))]
			text := render(m.t, a, b, c, varSets[rng.IntN(len(varSets))], fixNames[rng.IntN(len(fixNames))])
			key := m.db + "\x00" + text
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, query{db: m.db, t: m.t, a: a, b: b, c: c, text: text})
			n++
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// zipf samples population indices by rank with probability
// ∝ 1/(rank+1)^s. The ranks are dealt out so the head of the distribution,
// which carries most of the traffic, costs about the same from one seed to
// the next: each template's texts are sorted by answer size and cut into
// zipfStrata size strata, and the ranks cycle through every (stratum,
// template) cell in a fixed order, each cell's texts in size order. The
// top ranks thus always hold one text of every template at every answer
// size; a seed changes which texts those are, not what they cost.
type zipf struct {
	cum  []float64
	perm []int // rank → population index
}

// zipfStrata is the number of answer-size strata per template.
const zipfStrata = 8

// strataOrder visits the strata so that consecutive ranks alternate
// between small and large answers.
var strataOrder = [zipfStrata]int{0, 4, 2, 6, 1, 5, 3, 7}

func newZipf(rng *rand.Rand, w *workload, idx []int, s float64) *zipf {
	var byT [numTmpl][]int
	for _, i := range rng.Perm(len(idx)) {
		byT[w.pop[idx[i]].t] = append(byT[w.pop[idx[i]].t], idx[i])
	}
	var cells [zipfStrata][numTmpl][]int
	for t, is := range byT {
		size := make(map[int]int, len(is))
		for _, i := range is {
			q := &w.pop[i]
			size[i] = reference(w.graphs[q.db], q).len()
		}
		// Stable on the random order above: equal sizes stay shuffled.
		sort.SliceStable(is, func(a, b int) bool { return size[is[a]] < size[is[b]] })
		for k, i := range is {
			cells[k*zipfStrata/len(is)][t] = append(cells[k*zipfStrata/len(is)][t], i)
		}
	}
	z := &zipf{cum: make([]float64, len(idx))}
	for len(z.perm) < len(idx) {
		for _, st := range strataOrder {
			for t := range cells[st] {
				if c := cells[st][t]; len(c) > 0 {
					z.perm = append(z.perm, c[0])
					cells[st][t] = c[1:]
				}
			}
		}
	}
	acc := 0.0
	for i := range z.cum {
		acc += 1 / math.Pow(float64(i+1), s)
		z.cum[i] = acc
	}
	return z
}

func (z *zipf) draw(rng *rand.Rand) int {
	r := rng.Float64() * z.cum[len(z.cum)-1]
	return z.perm[sort.SearchFloat64s(z.cum, r)]
}
