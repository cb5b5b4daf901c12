// Package optimize implements ACES tier 1: the global optimization that
// assigns time-averaged CPU targets c̄_j to every PE so as to maximize the
// weighted throughput of the system (paper §V-B):
//
//	maximize   Σ_j w_j · U(r̄_out,j)
//	subject to Σ_{j ∈ node i} c̄_j ≤ 1            (per-node CPU, Eq. 4)
//	           r̄_in,j bounded by upstream output   (flow, Eq. 5)
//	           r̄_in,j = h_j(c̄_j) = a_j·c̄_j − b_j  (rate model, Eq. 6)
//
// U is strictly increasing, concave and differentiable; the paper suggests
// U(x) = x, log(x+1), or 1 − e^{−x}. The objective is evaluated through a
// fluid-flow propagation over the DAG and maximized by projected gradient
// ascent with adaptive step control; each node's allocations are projected
// back onto the capacity simplex {c ≥ 0, Σ c ≤ 1}. Concavity of the
// composition (min of concave functions, scaled and fed through concave
// increasing U) makes the maximum unique up to flat directions, so gradient
// ascent with projection converges; tests verify optima against closed
// forms and brute-force grids.
package optimize

import (
	"fmt"
	"math"
	"time"

	"aces/internal/graph"
	"aces/internal/sdo"
	"aces/internal/sim"
)

// Utility is a concave increasing utility U(x) applied to each weighted
// output rate.
type Utility interface {
	// Value returns U(x) for x ≥ 0.
	Value(x float64) float64
	// Name identifies the utility in reports.
	Name() string
}

// LinearUtility is U(x) = x: the objective becomes the plain weighted
// throughput.
type LinearUtility struct{}

// Value implements Utility.
func (LinearUtility) Value(x float64) float64 { return x }

// Name implements Utility.
func (LinearUtility) Name() string { return "linear" }

// LogUtility is U(x) = log(1 + x/Scale): concave with diminishing returns,
// favouring balanced rate assignments. Scale sets the knee (default 1).
type LogUtility struct {
	Scale float64
}

// Value implements Utility.
func (u LogUtility) Value(x float64) float64 {
	s := u.Scale
	if s <= 0 {
		s = 1
	}
	return math.Log1p(x / s)
}

// Name implements Utility.
func (LogUtility) Name() string { return "log" }

// ExpUtility is U(x) = 1 − e^{−x/Scale}, the paper's saturating example.
type ExpUtility struct {
	Scale float64
}

// Value implements Utility.
func (u ExpUtility) Value(x float64) float64 {
	s := u.Scale
	if s <= 0 {
		s = 1
	}
	return 1 - math.Exp(-x/s)
}

// Name implements Utility.
func (ExpUtility) Name() string { return "exp" }

// Interface compliance checks.
var (
	_ Utility = LinearUtility{}
	_ Utility = LogUtility{}
	_ Utility = ExpUtility{}
)

// Allocation is the tier-1 output: per-PE CPU targets and the fluid rates
// they induce.
type Allocation struct {
	// CPU[j] is c̄_j, the fraction of PE j's node allocated to it.
	CPU []float64
	// RIn[j] and ROut[j] are the fluid input/output rates in SDOs/sec.
	RIn, ROut []float64
	// Objective is Σ w_j U(r̄_out,j) at the solution.
	Objective float64
	// WeightedThroughput is Σ w_j r̄_out,j (the report metric, independent
	// of the utility shape used during optimization).
	WeightedThroughput float64
	// Iterations actually used by the solver.
	Iterations int
	// Evals counts full fluid propagations the solver performed — its
	// dominant cost unit. One analytic-gradient iteration costs a handful
	// (gradient + line search); one finite-difference iteration costs p.
	Evals int
	// ColdStart reports that the solver started from the demand-
	// proportional cold point: no WarmStart was supplied, or its shape did
	// not match the topology (a silent fallback the retarget loop surfaces
	// through the retarget_cold_solves_total counter).
	ColdStart bool
	// SolveMillis is the wall-clock solve time in milliseconds.
	SolveMillis float64
	// DeadlineExceeded is set when Config.Deadline cut the ascent short:
	// the allocation is the best iterate found, not a converged optimum.
	DeadlineExceeded bool
}

// Config tunes the solver.
type Config struct {
	// Utility defaults to LogUtility{Scale: 1} — strictly concave, which
	// both matches the paper's examples and makes the optimum unique.
	Utility Utility
	// MaxIters bounds gradient iterations (default 4000).
	MaxIters int
	// Tol stops when the relative objective improvement over a 25-iteration
	// window falls below it (default 1e-9).
	Tol float64
	// Headroom caps each node's total allocation at this value instead of
	// 1.0, reserving CPU for system overhead (default 1.0 — no reserve).
	Headroom float64
	// MinShare floors every PE's allocation at this fraction of its node,
	// applied after optimization (rescaling the node if needed). Linear
	// utility legitimately starves weight-inefficient PEs toward zero; a
	// deployed PE still needs a minimum slice to make progress, and a
	// zero allocation would wedge blocking policies forever. 0 disables.
	MinShare float64
	// WarmStart, when it has one entry per PE, replaces the cold
	// demand-proportional initial point: the solver starts from this
	// allocation (projected onto the node simplices, so an infeasible or
	// stale incumbent is safe). Periodic retargeting passes the incumbent
	// allocation here — near the old optimum the re-solve converges in a
	// handful of iterations instead of re-walking the whole ascent.
	WarmStart []float64
	// WarmStartReplica is SolveElastic's warm start: per-PE per-replica-
	// slot incumbents, shaped like the topology's replica placement. Solve
	// ignores it.
	WarmStartReplica [][]float64
	// Gradient selects the gradient engine: GradientAnalytic (the zero
	// value) computes each gradient with one adjoint backward sweep;
	// GradientFiniteDiff retains the O(p²) difference-quotient reference
	// the gradient-check harness pins the adjoint against.
	Gradient GradientMode
	// Deadline bounds the solver's wall-clock time (0 = unbounded). When
	// it expires the solver stops at the end of the current iteration and
	// returns the best iterate found so far with DeadlineExceeded set —
	// every iterate is feasible (projection keeps it on the node
	// simplices), so a truncated solve still yields deployable targets.
	// The retarget loop uses this so a pathological topology degrades the
	// solution quality of one epoch instead of stalling the loop.
	Deadline time.Duration
}

func (c *Config) fillDefaults() {
	if c.Utility == nil {
		c.Utility = LogUtility{Scale: 1}
	}
	if c.MaxIters <= 0 {
		c.MaxIters = 4000
	}
	if c.Tol <= 0 {
		c.Tol = 1e-9
	}
	if c.Headroom <= 0 || c.Headroom > 1 {
		c.Headroom = 1
	}
}

// Solve computes the tier-1 allocation for a validated topology.
func Solve(t *graph.Topology, cfg Config) (*Allocation, error) {
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("optimize: %w", err)
	}
	cfg.fillDefaults()
	order, err := t.TopoOrder()
	if err != nil {
		return nil, err
	}
	p := t.NumPEs()

	start := time.Now()
	deadlineHit := false
	expired := func() bool {
		if cfg.Deadline <= 0 || time.Since(start) < cfg.Deadline {
			return false
		}
		deadlineHit = true
		return true
	}

	// Initial point: the warm-start incumbent when one is supplied (made
	// feasible by projection), otherwise each node's budget is allocated
	// proportionally to the unit-load CPU demand of its PEs — feasible and
	// in the interior.
	pj := newNodeProjector(t)
	cold := len(cfg.WarmStart) != p
	c := make([]float64, p)
	if !cold {
		copy(c, cfg.WarmStart)
		for j := range c {
			if c[j] < 0 || math.IsNaN(c[j]) {
				c[j] = 0
			}
		}
		pj.project(c, cfg.Headroom)
	} else {
		demand, err := t.UnitDemand()
		if err != nil {
			return nil, err
		}
		nodeSum := make([]float64, t.NumNodes)
		for j := 0; j < p; j++ {
			c[j] = demand[j]*t.PEs[j].Service.EffectiveCost() + 1e-6
			nodeSum[t.PEs[j].Node] += c[j]
		}
		for j := 0; j < p; j++ {
			c[j] *= 0.95 * cfg.Headroom / nodeSum[t.PEs[j].Node]
		}
	}

	ws := newAdjoint(t, order, nil)
	eval := func(c []float64) float64 { return ws.eval(c, cfg.Utility) }

	best := make([]float64, p)
	copy(best, c)
	bestObj := eval(c)
	// curObj tracks eval(c) across iterations: the accepted line-search
	// trial already produced it, so re-deriving the base objective at the
	// top of each iteration would waste one full propagation per
	// iteration. eval is deterministic, so the carried value is exactly
	// what the re-evaluation would return — identical iterates, one fewer
	// eval.
	curObj := bestObj
	objWindow := bestObj

	grad := make([]float64, p)
	trial := make([]float64, p)
	step := 0.05
	iters := 0
	for it := 1; it <= cfg.MaxIters; it++ {
		if expired() {
			break
		}
		iters = it
		var base float64
		if cfg.Gradient == GradientFiniteDiff {
			base = curObj
			// Forward-difference gradient. The objective is piecewise smooth
			// (min compositions); forward differences give a valid ascent
			// direction almost everywhere. One gradient is p evals — at large
			// p that alone can dwarf the deadline, so the deadline is also
			// polled inside the loop and a truncated gradient abandons the
			// iteration (best holds the last complete iterate).
			const h = 1e-7
			truncated := false
			for j := 0; j < p; j++ {
				if j%64 == 63 && expired() {
					truncated = true
					break
				}
				old := c[j]
				c[j] = old + h
				grad[j] = (eval(c) - base) / h
				c[j] = old
			}
			if truncated {
				break
			}
		} else {
			// Adjoint gradient: one forward pass (which doubles as the base
			// evaluation) plus one backward sweep, independent of p.
			base = ws.evalGrad(c, cfg.Utility, grad)
		}
		// Normalize the step by the gradient's scale so progress is
		// uniform across problem sizes.
		gnorm := 0.0
		for _, g := range grad {
			gnorm += g * g
		}
		gnorm = math.Sqrt(gnorm)
		if gnorm < 1e-14 {
			break
		}
		improved := false
		for attempt := 0; attempt < 12; attempt++ {
			for j := 0; j < p; j++ {
				trial[j] = c[j] + step*grad[j]/gnorm
			}
			pj.project(trial, cfg.Headroom)
			if obj := eval(trial); obj > base {
				copy(c, trial)
				curObj = obj
				if obj > bestObj {
					bestObj = obj
					copy(best, c)
				}
				step *= 1.25
				if step > 0.25 {
					step = 0.25
				}
				improved = true
				break
			}
			step *= 0.5
			if step < 1e-10 {
				break
			}
		}
		if !improved {
			break
		}
		if it%25 == 0 {
			if bestObj-objWindow <= cfg.Tol*(math.Abs(bestObj)+1e-12) {
				break
			}
			objWindow = bestObj
		}
	}

	// Phase 2: the adaptive phase stalls on the non-differentiable ridges
	// the min() composition creates (sharp with linear utility). A
	// diminishing-step subgradient pass walks along those ridges; per
	// subgradient-method theory the best iterate converges even though
	// individual steps may not improve. The analytic engine takes its
	// adjoint subgradient (one propagation per step, with the evaluation
	// of the previous step's iterate folded into the same forward pass);
	// the reference engine keeps central differences.
	copy(c, best)
	subIters := cfg.MaxIters - iters
	if subIters > 3000 {
		subIters = 3000
	}
	stepped := false
	for it := 1; it <= subIters; it++ {
		if expired() {
			break
		}
		iters++
		if cfg.Gradient == GradientFiniteDiff {
			const h = 1e-7
			truncated := false
			for j := 0; j < p; j++ {
				if j%64 == 63 && expired() {
					truncated = true
					break
				}
				old := c[j]
				c[j] = old + h
				up := eval(c)
				c[j] = old - h
				down := eval(c)
				c[j] = old
				grad[j] = (up - down) / (2 * h)
			}
			if truncated {
				break
			}
		} else {
			// The forward half of the gradient also scores the previous
			// step's iterate, so each analytic subgradient step costs ONE
			// propagation total.
			if obj := ws.evalGrad(c, cfg.Utility, grad); obj > bestObj {
				bestObj = obj
				copy(best, c)
			}
		}
		gnorm := 0.0
		for _, g := range grad {
			gnorm += g * g
		}
		gnorm = math.Sqrt(gnorm)
		if gnorm < 1e-14 {
			break
		}
		alpha := 0.15 / math.Sqrt(float64(it))
		for j := 0; j < p; j++ {
			c[j] += alpha * grad[j] / gnorm
		}
		pj.project(c, cfg.Headroom)
		stepped = true
		if cfg.Gradient == GradientFiniteDiff {
			if obj := eval(c); obj > bestObj {
				bestObj = obj
				copy(best, c)
			}
		}
	}
	if cfg.Gradient != GradientFiniteDiff && stepped {
		// The analytic loop scores each iterate at the TOP of the next
		// step; the last stepped point still needs its evaluation.
		if obj := eval(c); obj > bestObj {
			bestObj = obj
			copy(best, c)
		}
	}

	if cfg.MinShare > 0 {
		applyMinShare(pj.groups, best, cfg.MinShare, cfg.Headroom)
	}
	// The returned Objective is recomputed from the FINAL allocation:
	// applyMinShare mutates best after bestObj was captured, so echoing
	// bestObj could overstate what the returned CPU vector achieves.
	ws.forward(best)
	rin, rout := ws.rates()
	obj, wt := 0.0, 0.0
	for j := 0; j < p; j++ {
		if w := t.PEs[j].Weight; w > 0 {
			obj += w * cfg.Utility.Value(rout[j])
		}
		wt += t.PEs[j].Weight * rout[j]
	}
	return &Allocation{
		CPU:                best,
		RIn:                rin,
		ROut:               rout,
		Objective:          obj,
		WeightedThroughput: wt,
		Iterations:         iters,
		Evals:              ws.evals,
		ColdStart:          cold,
		SolveMillis:        float64(time.Since(start)) / float64(time.Millisecond),
		DeadlineExceeded:   deadlineHit,
	}, nil
}

// applyMinShare raises every allocation to at least minShare of its node;
// nodes[n] lists node n's PE ids in ascending order (the plain
// projector's groups). When the floors push a node over budget, only the
// above-floor allocations are scaled down (iterating in case scaling
// drops some of them to the floor), so the floor is a hard guarantee as
// long as it is feasible (#PEs × minShare ≤ headroom); an infeasible floor
// falls back to an equal split.
func applyMinShare(nodes [][]int, c []float64, minShare, headroom float64) {
	for _, ids := range nodes {
		if len(ids) == 0 {
			continue
		}
		if minShare*float64(len(ids)) >= headroom {
			for _, id := range ids {
				c[id] = headroom / float64(len(ids))
			}
			continue
		}
		for iter := 0; iter < len(ids)+1; iter++ {
			var floored, above float64
			nAbove := 0
			for _, id := range ids {
				if c[id] <= minShare {
					c[id] = minShare
					floored += minShare
				} else {
					above += c[id]
					nAbove++
				}
			}
			if floored+above <= headroom+1e-12 || nAbove == 0 {
				break
			}
			scale := (headroom - floored) / above
			done := true
			for _, id := range ids {
				if c[id] > minShare {
					c[id] *= scale
					if c[id] < minShare {
						done = false
					}
				}
			}
			if done {
				break
			}
		}
	}
}

// propagate evaluates the fluid model: each PE's input rate is the minimum
// of its processing capacity h_j(c_j) and the data available from its
// sources and upstream PEs (each downstream receives a full copy of the
// upstream output — §III-D); outputs scale by the mean multiplicity. Join
// PEs fire at the rate of their slowest input (the per-upstream form of
// Eq. 5).
func propagate(t *graph.Topology, order []sdo.PEID, c []float64) (rin, rout []float64) {
	p := t.NumPEs()
	rin = make([]float64, p)
	rout = make([]float64, p)
	avail := make([]float64, p)
	var joinFeeds map[sdo.PEID][]float64
	for _, s := range t.Sources {
		avail[s.Target] += s.Rate
	}
	for _, j := range order {
		pe := &t.PEs[j]
		cap := c[j]/pe.Service.EffectiveCost() - pe.Overhead
		if cap < 0 {
			cap = 0
		}
		r := avail[j]
		if pe.Join {
			r = math.Inf(1)
			for _, v := range joinFeeds[j] {
				if v < r {
					r = v
				}
			}
			if len(joinFeeds[j]) < len(t.Up(j)) || math.IsInf(r, 1) {
				r = 0
			}
		}
		if cap < r {
			r = cap
		}
		rin[j] = r
		m := pe.Service.MeanMult
		if m <= 0 {
			m = 1
		}
		rout[j] = r * m
		for _, d := range t.Down(j) {
			if t.PEs[d].Join {
				if joinFeeds == nil {
					joinFeeds = make(map[sdo.PEID][]float64)
				}
				joinFeeds[d] = append(joinFeeds[d], rout[j])
			} else {
				avail[d] += rout[j]
			}
		}
	}
	return rin, rout
}

// projectNodes projects the allocation of every node onto the capacity
// simplex {c ≥ 0, Σ c ≤ headroom} using the standard Euclidean simplex
// projection. One-shot convenience; the solvers hold a projector so the
// node index and scratch persist across the ascent loop.
func projectNodes(t *graph.Topology, c []float64, headroom float64) {
	newNodeProjector(t).project(c, headroom)
}

// Propagate exposes the fluid propagation for external consumers (the
// simulator uses it to derive nominal rates, and tests use it as an
// oracle).
func Propagate(t *graph.Topology, c []float64) (rin, rout []float64, err error) {
	order, err := t.TopoOrder()
	if err != nil {
		return nil, nil, err
	}
	rin, rout = propagate(t, order, c)
	return rin, rout, nil
}

// Perturb returns a copy of the CPU targets with each entry scaled by a
// uniform factor in [1−eps, 1+eps] and re-projected onto the node
// simplices: the "errors in allocation" robustness experiment (§VII).
func Perturb(t *graph.Topology, cpu []float64, eps float64, rng *sim.Rand) []float64 {
	out := make([]float64, len(cpu))
	for j := range cpu {
		out[j] = cpu[j] * (1 + rng.Uniform(-eps, eps))
	}
	projectNodes(t, out, 1)
	return out
}
