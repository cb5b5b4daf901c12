// Adjoint (reverse-mode) gradients for the tier-1 fluid model.
//
// The objective Σ_j w_j·U(r̄_out,j) is a composition of min() and affine
// maps over the DAG (Eqs. 4–6): each PE's input rate is the minimum of a
// capacity term (affine in its CPU share, clamped at the overhead dead
// zone) and a flow term (a sum of upstream copies, or their minimum at a
// join). A finite-difference gradient therefore costs one full fluid
// propagation per decision variable — O(p²) per ascent iteration, the
// quadratic wall that caps monolithic solve sizes. But the same structure
// is exactly reverse-mode differentiable: ONE forward pass records which
// branch of every min() is active, and ONE backward sweep in reverse
// topological order pushes ∂obj/∂r̄_out through multiplicity, join-min and
// copy-fanout edges down to ∂obj/∂c̄_j — the whole gradient for the price
// of a single propagation.
//
// Subgradient choices on ties (the objective is piecewise smooth, so a
// consistent selection is required, not a unique derivative):
//
//   - capacity vs flow: the forward model takes the capacity branch only
//     when cap < flow STRICTLY; a tie routes the adjoint through the flow
//     branch. ∂obj/∂c̄_j = 0 there matches forward differences (raising
//     c̄_j at a tie does not raise the rate), and the upstream leak is the
//     LEFT derivative (lowering the feed lowers the rate) — a valid
//     supergradient that keeps ascent moving at the exactly-balanced
//     points symmetric cold starts produce. The exception is a DEAD tie,
//     cap == flow == 0 (a dead-zone clamp meeting a dead upstream chain —
//     common, not measure-zero): the rate is pinned at 0 in every
//     direction, so the adjoint is dropped rather than leaked through a
//     binding zero-capacity constraint.
//   - join feeds: the minimum feed is the FIRST minimizer in Up() order;
//     tied feeds after it get zero (the left derivative again: lowering
//     the chosen feed lowers the min). Deterministic, so repeated
//     gradients at the same point agree. A min of 0 tied across TWO OR
//     MORE feeds drops the adjoint instead: raising any single feed
//     cannot raise the min (another feed still pins it at 0) and rates
//     cannot go below 0, so the objective is flat in every feed
//     direction — zero-rate branches meeting at a join must not leak
//     phantom gradient into each other's upstream chains.
//   - overhead dead zone: a (slot) capacity term contributes gradient
//     only when c̄/cost − overhead ≥ 0; strictly inside the dead zone the
//     clamp is active and the derivative is 0, while AT the boundary the
//     right (escape) derivative 1/cost is taken — again the
//     forward-difference choice, and the one that lets ascent lift a
//     capacity-starved PE off zero instead of declaring a flat optimum.
package optimize

import (
	"math"
	"slices"

	"aces/internal/graph"
	"aces/internal/sdo"
)

// GradientMode selects the solver's gradient engine.
type GradientMode int

const (
	// GradientAnalytic (the default) computes each gradient with one
	// adjoint backward sweep — O(p) per iteration.
	GradientAnalytic GradientMode = iota
	// GradientFiniteDiff retains the forward/central-difference reference
	// implementation — O(p²) per iteration. The gradient-check harness
	// pins the analytic engine against it.
	GradientFiniteDiff
)

// UtilityDeriv is the optional derivative extension of Utility. The
// adjoint engine uses it when present and falls back to a central
// difference on the SCALAR utility (cheap — no fluid propagation) for
// custom utilities that only implement Value.
type UtilityDeriv interface {
	// Deriv returns U′(x) for x ≥ 0.
	Deriv(x float64) float64
}

// Deriv implements UtilityDeriv: U(x) = x ⇒ U′(x) = 1.
func (LinearUtility) Deriv(float64) float64 { return 1 }

// Deriv implements UtilityDeriv: U(x) = log(1 + x/s) ⇒ U′(x) = 1/(s + x).
func (u LogUtility) Deriv(x float64) float64 {
	s := u.Scale
	if s <= 0 {
		s = 1
	}
	return 1 / (s + x)
}

// Deriv implements UtilityDeriv: U(x) = 1 − e^{−x/s} ⇒ U′(x) = e^{−x/s}/s.
func (u ExpUtility) Deriv(x float64) float64 {
	s := u.Scale
	if s <= 0 {
		s = 1
	}
	return math.Exp(-x/s) / s
}

// Interface compliance checks.
var (
	_ UtilityDeriv = LinearUtility{}
	_ UtilityDeriv = LogUtility{}
	_ UtilityDeriv = ExpUtility{}
)

// utilityDeriv returns U′(x), via UtilityDeriv when implemented.
func utilityDeriv(u Utility, x float64) float64 {
	if d, ok := u.(UtilityDeriv); ok {
		return d.Deriv(x)
	}
	const h = 1e-6
	lo := x - h
	if lo < 0 {
		lo = 0
	}
	return (u.Value(x+h) - u.Value(lo)) / (x + h - lo)
}

// adjoint is the solver's fluid-model workspace: a forward pass that
// matches propagate/propagateElastic exactly while recording active
// branches, plus the reverse sweep. All scratch is allocated once per
// Solve, so the hot ascent loop performs zero allocations per evaluation
// (propagate itself re-allocates rate vectors and a join map every call).
//
// The model is laid out flat in topological order: the static terms and
// the forward state are indexed by the PE's POSITION k in that order,
// upstreams are a CSR of positions, and each PE names its first
// decision-vector slot inline plus a CSR of any further ones (none in
// plain mode, the other replica slots in elastic mode). The forward pass
// then streams through memory in the order it computes, and plain and
// elastic solves share one forward and one backward loop. The layout
// changes where values live, not how they are combined: the per-PE
// upstream sums run in Up() order, the objective sums in PE-id order and
// the adjoint accumulates in reverse topological order, exactly as a walk
// over t.PEs and t.Up does, so every result is bit-identical. The
// decision vector, and so grad, stays indexed by PE id (or flat slot).
type adjoint struct {
	// order maps position → PE id.
	order []sdo.PEID
	// terms holds each position's static model terms, snapshotted at
	// construction, plus one sentinel closing the last CSR ranges.
	terms []peTerm
	// upPos: the upstream positions of position k are
	// upPos[terms[k].up:terms[k+1].up], in Up() order.
	upPos []int32
	// extra: the decision-vector indices of position k beyond its first,
	// terms[k].slot, are extra[terms[k].extra:terms[k+1].extra] — the
	// replica slots of an elastic PE; empty in plain mode.
	extra []int32
	// weighted lists the positions of positive-weight PEs in PE-id order,
	// the objective's summation order.
	weighted []int32

	// Forward-pass state by position (valid after forward()).
	rin, rout []float64
	capped    []bool  // capacity branch active (cap < flow strictly)
	dead      []bool  // cap == flow == 0: rate pinned, adjoint drops
	argmin    []int32 // position of a join's minimum feed (-1 none)

	adj []float64 // ∂obj/∂r̄_out scratch for the backward sweep, by position
	// evals counts forward propagations — the solver's dominant cost unit,
	// reported as Allocation.Evals.
	evals int
}

// peTerm is one PE's static model, stored at its topological position.
type peTerm struct {
	cost   float64 // Service.EffectiveCost()
	over   float64 // Overhead
	src    float64 // direct source rate feeding the PE
	mult   float64 // MeanMult floored at 1
	weight float64 // Weight when positive, else 0
	up     int32   // first index of the PE's range in upPos
	slot   int32   // the PE's first decision-vector index
	extra  int32   // first index of the PE's range in extra
	join   bool
}

// newAdjoint builds a workspace for the topology. slotOf selects elastic
// mode (decision vector = flat replica slots, slotOf[j] listing PE j's);
// nil selects plain per-PE mode, where PE j's one slot is j.
func newAdjoint(t *graph.Topology, order []sdo.PEID, slotOf [][]int) *adjoint {
	p := t.NumPEs()
	a := &adjoint{
		order: order, terms: make([]peTerm, p+1),
		rin: make([]float64, p), rout: make([]float64, p),
		capped: make([]bool, p), dead: make([]bool, p), argmin: make([]int32, p),
		adj: make([]float64, p),
	}
	pos := make([]int32, p)
	for k, j := range order {
		pos[j] = int32(k)
	}
	for _, s := range t.Sources {
		a.terms[pos[s.Target]].src += s.Rate
	}
	for k, j := range order {
		pe := &t.PEs[j]
		tm := &a.terms[k]
		tm.cost = pe.Service.EffectiveCost()
		tm.over = pe.Overhead
		tm.mult = pe.Service.MeanMult
		if tm.mult <= 0 {
			tm.mult = 1
		}
		if w := pe.Weight; w > 0 {
			tm.weight = w
		}
		tm.join = pe.Join
		tm.up = int32(len(a.upPos))
		for _, u := range t.Up(j) {
			a.upPos = append(a.upPos, pos[u])
		}
		tm.extra = int32(len(a.extra))
		if slotOf == nil {
			tm.slot = int32(j)
		} else {
			tm.slot = int32(slotOf[j][0])
			for _, i := range slotOf[j][1:] {
				a.extra = append(a.extra, int32(i))
			}
		}
	}
	a.terms[p].up, a.terms[p].extra = int32(len(a.upPos)), int32(len(a.extra))
	for j := range t.PEs {
		if t.PEs[j].Weight > 0 {
			a.weighted = append(a.weighted, pos[j])
		}
	}
	return a
}

// forward runs the fluid propagation at x, recording the active branch of
// every min(). Semantically identical to propagate/propagateElastic: in
// topological order every upstream is settled before its consumers, so a
// join's feeds are exactly the outputs of its upstream PEs and a non-join's
// availability is its source rate plus the sum of upstream copies. A PE's
// capacity sums max(0, x/cost − overhead) over its slots, starting from
// the first slot's term (which is what 0 + term rounds to).
func (a *adjoint) forward(x []float64) {
	// Locals, resliced to the PE count, let the compiler keep the slice
	// headers in registers and drop the per-PE bounds checks.
	terms, upPos, extra := a.terms, a.upPos, a.extra
	n := len(terms) - 1
	rin, rout, capped, dead, argmin := a.rin[:n], a.rout[:n], a.capped[:n], a.dead[:n], a.argmin[:n]
	for k := 0; k < n; k++ {
		tm, next := &terms[k], &terms[k+1]
		cap := positive(x[tm.slot]/tm.cost - tm.over)
		for _, i := range extra[tm.extra:next.extra] {
			cap += positive(x[i]/tm.cost - tm.over)
		}
		ups := upPos[tm.up:next.up]
		var flow float64
		am := int32(-1)
		if tm.join {
			if len(ups) > 0 {
				flow = math.Inf(1)
				ties := 0
				for _, u := range ups {
					if r := rout[u]; r < flow {
						flow = r
						am = u
						ties = 1
					} else if r == flow {
						ties++
					}
				}
				if flow == 0 && ties > 1 {
					// Multiply-tied zero min: flat in every feed direction.
					am = -1
				}
			}
		} else {
			flow = tm.src
			for _, u := range ups {
				flow += rout[u]
			}
		}
		argmin[k] = am
		r := lessOr(cap, flow)
		capped[k] = cap < flow
		dead[k] = cap == 0 && flow == 0
		rin[k] = r
		rout[k] = r * tm.mult
	}
	a.evals++
}

// positive returns v when v > 0 and +0 otherwise (NaN included), and
// lessOr returns a when a < b and b otherwise: exactly the branches
// `if v > 0 {…}` and `if a < b {…}` pick, selected on the bits so they
// compile to conditional moves. Which side wins changes from PE to PE
// with the iterate, and a mispredicted jump per PE costs the forward pass
// more than the rest of the PE's update.
func positive(v float64) float64 {
	var mask uint64
	if v > 0 {
		mask = ^uint64(0)
	}
	return math.Float64frombits(math.Float64bits(v) & mask)
}

func lessOr(a, b float64) float64 {
	ab, bb := math.Float64bits(a), math.Float64bits(b)
	if a < b {
		bb = ab
	}
	return math.Float64frombits(bb)
}

// objective evaluates Σ w_j·U(r̄_out,j) over the last forward pass, summed
// in PE-id order.
func (a *adjoint) objective(util Utility) float64 {
	obj := 0.0
	for _, k := range a.weighted {
		obj += a.terms[k].weight * util.Value(a.rout[k])
	}
	return obj
}

// rates returns the last forward pass's input and output rates indexed by
// PE id.
func (a *adjoint) rates() (rin, rout []float64) {
	rin = make([]float64, len(a.order))
	rout = make([]float64, len(a.order))
	for k, j := range a.order {
		rin[j] = a.rin[k]
		rout[j] = a.rout[k]
	}
	return rin, rout
}

// eval is one forward propagation plus the objective — the line-search
// evaluation, allocation-free.
func (a *adjoint) eval(x []float64, util Utility) float64 {
	a.forward(x)
	return a.objective(util)
}

// evalGrad computes the objective AND its full gradient with one forward
// and one backward sweep. grad must be sized for the decision vector
// (p entries in plain mode, one per flat slot in elastic mode).
func (a *adjoint) evalGrad(x []float64, util Utility, grad []float64) float64 {
	a.forward(x)
	obj := a.objective(util)
	a.backward(x, util, grad)
	return obj
}

// backward is the reverse-topological adjoint sweep over the branches the
// last forward pass recorded. For each PE j (downstream consumers already
// settled): the seed w_j·U′(r̄_out,j) joins the accumulated downstream
// adjoint; multiplicity scales it onto the input (r̄_out = m·r̄_in); then
// the active branch routes it — a capacity-limited PE converts it into
// ∂obj/∂c̄ = adjoint/EffectiveCost on its live (non-dead-zone) capacity
// terms, a flow-limited join passes it to its minimum feed's producer, and
// a flow-limited non-join fans it to every upstream (each downstream
// receives a full copy of the upstream output, so copy-fanout adjoints
// sum on the producer).
func (a *adjoint) backward(x []float64, util Utility, grad []float64) {
	terms, upPos, extra := a.terms, a.upPos, a.extra
	n := len(terms) - 1
	rout, capped, dead, argmin, adj := a.rout[:n], a.capped[:n], a.dead[:n], a.argmin[:n], a.adj[:n]
	for i := range adj {
		adj[i] = 0
	}
	for i := range grad {
		grad[i] = 0
	}
	for k := n - 1; k >= 0; k-- {
		tm, next := &terms[k], &terms[k+1]
		ad := adj[k]
		if w := tm.weight; w > 0 {
			ad += w * utilityDeriv(util, rout[k])
		}
		if ad == 0 || dead[k] {
			continue
		}
		adIn := ad * tm.mult
		if capped[k] {
			if x[tm.slot]/tm.cost-tm.over >= 0 {
				grad[tm.slot] += adIn / tm.cost
			}
			for _, i := range extra[tm.extra:next.extra] {
				if x[i]/tm.cost-tm.over >= 0 {
					grad[i] += adIn / tm.cost
				}
			}
			continue
		}
		if tm.join {
			if u := argmin[k]; u >= 0 {
				adj[u] += adIn
			}
			continue
		}
		for _, u := range upPos[tm.up:next.up] {
			adj[u] += adIn
		}
	}
}

// projector holds the per-node simplex projections' index and scratch.
// The ascent loop projects every trial point, so the gather buffer and
// the node→PE index (Topology.OnNode scans all p PEs per node) are built
// once and reused: a projection allocates nothing and costs O(p).
//
// The threshold search needs each over-budget group's values in
// descending order. Consecutive projections see nearly the same values
// (line-search trials and ascent iterates move by small steps), so the
// projector keeps every group's descending permutation from its last
// search and re-sorts it by insertion, which costs O(n) when the order
// barely moved. The values it walks, and so θ, are exactly those of a
// fresh sort.
type projector struct {
	// groups[g] lists the decision-vector indices sharing node g's
	// capacity simplex.
	groups [][]int
	vals   []float64 // gather scratch
	// order[g] is group g's descending permutation (positions within
	// groups[g]) from its last threshold search.
	order [][]int32
}

// sortBudget bounds the insertion re-sort at sortBudget·n element shifts
// per group; a permutation that moved further than that (the first search
// of a group, a large step) is finished by a general sort instead.
const sortBudget = 8

// newNodeProjector indexes the plain solver's per-node PE groups.
func newNodeProjector(t *graph.Topology) *projector {
	groups := make([][]int, t.NumNodes)
	for j := range t.PEs {
		n := t.PEs[j].Node
		groups[n] = append(groups[n], j)
	}
	return &projector{groups: groups}
}

// newSlotProjector wraps the elastic solver's node→slot index.
func newSlotProjector(nodeSlots [][]int) *projector {
	return &projector{groups: nodeSlots}
}

// project projects x's entries, group by group, onto {v ≥ 0, Σ v ≤
// headroom}. Allocation-free after the scratch warms up.
func (pj *projector) project(x []float64, headroom float64) {
	if len(pj.order) != len(pj.groups) {
		pj.order = make([][]int32, len(pj.groups))
	}
	for g, ids := range pj.groups {
		if len(ids) == 0 {
			continue
		}
		if cap(pj.vals) < len(ids) {
			pj.vals = make([]float64, 0, 2*len(ids))
		}
		vals := pj.vals[:0]
		sum := 0.0
		for _, id := range ids {
			v := x[id]
			if v < 0 {
				v = 0
			}
			vals = append(vals, v)
			sum += v
		}
		if sum <= headroom {
			for i, id := range ids {
				x[id] = vals[i]
			}
			continue
		}
		theta, feasible := pj.threshold(g, vals, headroom)
		for i, id := range ids {
			if !feasible {
				x[id] = 0
				continue
			}
			if v := vals[i] - theta; v > 0 {
				x[id] = v
			} else {
				x[id] = 0
			}
		}
	}
}

// threshold computes the Euclidean simplex-projection threshold θ (Duchi
// et al. 2008) for group g's values v onto {x ≥ 0, Σ x = z}, scanning v in
// descending order through the group's cached permutation. feasible is
// false when every component clips to zero.
func (pj *projector) threshold(g int, v []float64, z float64) (theta float64, feasible bool) {
	perm := pj.order[g]
	if len(perm) != len(v) {
		perm = make([]int32, len(v))
		for i := range perm {
			perm[i] = int32(i)
		}
		pj.order[g] = perm
	}
	sortDescending(perm, v)
	var css, cssAtRho float64
	rho := -1
	for i, k := range perm {
		ui := v[k]
		css += ui
		if ui-(css-z)/float64(i+1) > 0 {
			rho = i
			cssAtRho = css
		}
	}
	if rho < 0 {
		return 0, false
	}
	return (cssAtRho - z) / float64(rho+1), true
}

// before reports whether a sorts ahead of b in descending order. It is
// the reverse of sort.Float64s' order, NaN included (NaN sorts last), so
// the sorted value sequence is the one a descending walk of
// sort.Float64s' output yields.
func before(a, b float64) bool {
	return b < a || (b != b && a == a)
}

// sortDescending re-sorts perm so v[perm[i]] is descending, by insertion
// from perm's current order, falling back to a general sort once the
// shifts exceed sortBudget per element.
func sortDescending(perm []int32, v []float64) {
	budget := sortBudget * len(perm)
	for i := 1; i < len(perm); i++ {
		k := perm[i]
		x := v[k]
		j := i
		for j > 0 && before(x, v[perm[j-1]]) {
			perm[j] = perm[j-1]
			j--
		}
		perm[j] = k
		if budget -= i - j; budget < 0 {
			slices.SortFunc(perm, func(a, b int32) int {
				switch {
				case before(v[a], v[b]):
					return -1
				case before(v[b], v[a]):
					return 1
				}
				return 0
			})
			return
		}
	}
}
