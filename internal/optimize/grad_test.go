package optimize

import (
	"math"
	"testing"
	"time"

	"aces/internal/graph"
	"aces/internal/sdo"
	"aces/internal/sim"
	"aces/internal/workload"
)

// richDAG builds a random layered DAG exercising every branch of the
// adjoint: join PEs (min over feeds), MeanMult ≠ 1, nonzero Overhead
// (dead zones at small allocations), copy-fanout (shared downstream
// consumers), weighted intermediates, and — when elastic — multi-slot
// replica placements. graph.Generate produces none of joins, overheads or
// multiplicities, so the gradient check needs its own builder.
func richDAG(t testing.TB, seed int64, p, nodes int, elastic bool) *graph.Topology {
	t.Helper()
	rng := sim.NewRand(seed)
	topo := graph.New(nodes, 50)
	nIngress := 2 + rng.Intn(3)
	if nIngress > p/2 {
		nIngress = p / 2
	}
	for j := 0; j < p; j++ {
		sp := workload.ServiceParams{
			T0: 0.001 + 0.009*rng.Float64(), Rho: 0.5, LambdaS: 10, DwellUnit: 0.01,
			MeanMult: 0.5 + 1.5*rng.Float64(), // exercise multiplicity scaling
		}
		sp.T1 = sp.T0
		pe := graph.PE{Service: sp, Node: sdo.NodeID(rng.Intn(nodes))}
		if j >= nIngress {
			// Fan in from 1–3 strictly-earlier PEs (never an ingress-only
			// constraint issue: source targets stay upstream-free).
			fanin := 1 + rng.Intn(3)
			ups := map[sdo.PEID]bool{}
			for f := 0; f < fanin; f++ {
				ups[sdo.PEID(rng.Intn(j))] = true
			}
			if len(ups) >= 2 && rng.Float64() < 0.35 {
				pe.Join = true
			}
			if rng.Float64() < 0.4 {
				pe.Overhead = 2 + 10*rng.Float64() // dead zone at small c
			}
			if rng.Float64() < 0.3 {
				pe.Weight = 0.5 + rng.Float64()
			}
			if elastic && !pe.Join && rng.Float64() < 0.4 {
				pe.MaxReplicas = 2 + rng.Intn(2)
			}
			id := topo.AddPE(pe)
			for u := range ups {
				if err := topo.Connect(u, id); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			id := topo.AddPE(pe)
			if err := topo.AddSource(graph.Source{
				Stream: sdo.StreamID(j + 1), Target: id,
				Rate:  50 + 150*rng.Float64(),
				Burst: graph.BurstSpec{Kind: graph.BurstPoisson},
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Every sink carries weight so gradients reach the whole DAG.
	for j := range topo.PEs {
		if len(topo.Down(sdo.PEID(j))) == 0 && topo.PEs[j].Weight == 0 {
			topo.PEs[j].Weight = 1
		}
	}
	if err := topo.Validate(); err != nil {
		t.Fatalf("richDAG(seed=%d): %v", seed, err)
	}
	return topo
}

// elasticWorkspace flattens the replica placement the way SolveElastic
// does and returns the adjoint plus the slot projector's node groups.
func elasticWorkspace(t testing.TB, topo *graph.Topology) (*adjoint, [][]int, int) {
	t.Helper()
	order, err := topo.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	p := topo.NumPEs()
	slotOf := make([][]int, p)
	nodeSlots := make([][]int, topo.NumNodes)
	ns := 0
	for j := 0; j < p; j++ {
		for _, n := range topo.ReplicaPlacement(sdo.PEID(j)) {
			slotOf[j] = append(slotOf[j], ns)
			nodeSlots[n] = append(nodeSlots[n], ns)
			ns++
		}
	}
	ws := newAdjoint(topo, order, slotOf)
	return ws, nodeSlots, ns
}

// TestGradientCheck pins the adjoint gradient against central differences
// of the SAME forward model over a seeded random-DAG ladder: joins,
// MeanMult ≠ 1, overhead dead zones, copy fanout, and (in elastic rows)
// multi-slot replica placements. The objective is piecewise smooth, so
// coordinates sitting on a kink — detected when the one-sided differences
// disagree — are skipped: there the analytic engine deliberately takes the
// forward-difference subgradient while a central difference averages the
// two branches. Away from kinks the two must agree to 1e-5 relative.
func TestGradientCheck(t *testing.T) {
	cases := []struct {
		name    string
		seed    int64
		p       int
		nodes   int
		elastic bool
		util    Utility
	}{
		{"small-linear", 1, 12, 3, false, LinearUtility{}},
		{"small-log", 2, 12, 3, false, LogUtility{Scale: 20}},
		{"medium-linear", 3, 40, 6, false, LinearUtility{}},
		{"medium-exp", 4, 40, 6, false, ExpUtility{Scale: 50}},
		{"large-log", 5, 80, 10, false, LogUtility{Scale: 10}},
		{"elastic-small-linear", 6, 12, 3, true, LinearUtility{}},
		{"elastic-medium-log", 7, 40, 6, true, LogUtility{Scale: 20}},
		{"elastic-large-linear", 8, 80, 10, true, LinearUtility{}},
	}
	const (
		h       = 1e-6
		relTol  = 1e-5
		kinkTol = 1e-3
	)
	totalChecked, totalSkipped := 0, 0
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			topo := richDAG(t, tc.seed, tc.p, tc.nodes, tc.elastic)
			var ws *adjoint
			var groups [][]int
			var n int
			if tc.elastic {
				ws, groups, n = elasticWorkspace(t, topo)
			} else {
				order, err := topo.TopoOrder()
				if err != nil {
					t.Fatal(err)
				}
				ws = newAdjoint(topo, order, nil)
				n = topo.NumPEs()
				groups = newNodeProjector(topo).groups
			}
			pj := &projector{groups: groups}
			rng := sim.NewRand(tc.seed * 7919)
			grad := make([]float64, n)
			x := make([]float64, n)
			for point := 0; point < 3; point++ {
				for i := range x {
					x[i] = rng.Float64()
				}
				pj.project(x, 1)
				ws.evalGrad(x, tc.util, grad)
				checked, skipped := 0, 0
				for i := 0; i < n; i++ {
					old := x[i]
					x[i] = old + h
					fp := ws.eval(x, tc.util)
					x[i] = old - h
					fm := ws.eval(x, tc.util)
					x[i] = old
					f0 := ws.eval(x, tc.util)
					gFwd := (fp - f0) / h
					gBwd := (f0 - fm) / h
					scale := math.Abs(gFwd) + math.Abs(gBwd) + 1
					if math.Abs(gFwd-gBwd) > kinkTol*scale {
						// Kink: min() branch switches within ±h. The analytic
						// subgradient picks the forward branch by design;
						// central differences average the two — not comparable.
						skipped++
						continue
					}
					gc := (fp - fm) / (2 * h)
					if diff := math.Abs(grad[i] - gc); diff > relTol*(math.Abs(gc)+1) {
						t.Errorf("point %d coord %d: analytic %.8g vs central %.8g (diff %.3g)",
							point, i, grad[i], gc, diff)
					}
					checked++
				}
				if checked == 0 {
					t.Errorf("point %d: every coordinate sat on a kink — check is vacuous", point)
				}
				totalChecked += checked
				totalSkipped += skipped
			}
		})
	}
	if totalChecked < 3*totalSkipped {
		t.Errorf("too many kink skips: %d checked vs %d skipped", totalChecked, totalSkipped)
	}
}

// referenceSolveFD replays the PRE-carry-forward finite-difference solver:
// the historical loop re-derived the base objective with a full propagation
// at the top of every iteration (base := eval(c)) before the forward-
// difference gradient. Everything else — line search, step adaptation,
// phase-2 polish, projection — matches Solve's GradientFiniteDiff path.
func referenceSolveFD(t *graph.Topology, cfg Config) (cpu []float64, evals int) {
	cfg.fillDefaults()
	order, _ := t.TopoOrder()
	p := t.NumPEs()
	pj := newNodeProjector(t)
	c := make([]float64, p)
	demand, _ := t.UnitDemand()
	nodeSum := make([]float64, t.NumNodes)
	for j := 0; j < p; j++ {
		c[j] = demand[j]*t.PEs[j].Service.EffectiveCost() + 1e-6
		nodeSum[t.PEs[j].Node] += c[j]
	}
	for j := 0; j < p; j++ {
		c[j] *= 0.95 * cfg.Headroom / nodeSum[t.PEs[j].Node]
	}
	ws := newAdjoint(t, order, nil)
	eval := func(c []float64) float64 { return ws.eval(c, cfg.Utility) }
	best := make([]float64, p)
	copy(best, c)
	bestObj := eval(c)
	objWindow := bestObj
	grad := make([]float64, p)
	trial := make([]float64, p)
	step := 0.05
	iters := 0
	for it := 1; it <= cfg.MaxIters; it++ {
		iters = it
		base := eval(c) // the redundant re-evaluation under test
		const h = 1e-7
		for j := 0; j < p; j++ {
			old := c[j]
			c[j] = old + h
			grad[j] = (eval(c) - base) / h
			c[j] = old
		}
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
	copy(c, best)
	subIters := cfg.MaxIters - iters
	if subIters > 3000 {
		subIters = 3000
	}
	for it := 1; it <= subIters; it++ {
		const h = 1e-7
		for j := 0; j < p; j++ {
			old := c[j]
			c[j] = old + h
			up := eval(c)
			c[j] = old - h
			down := eval(c)
			c[j] = old
			grad[j] = (up - down) / (2 * h)
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
		if obj := eval(c); obj > bestObj {
			bestObj = obj
			copy(best, c)
		}
	}
	return best, ws.evals
}

// TestCarryForwardMatchesReference proves the eval(c)-per-iteration
// elimination changes NOTHING but the eval count: Solve's finite-difference
// path (which carries the accepted line-search objective forward) produces
// bit-identical iterates to the historical always-re-evaluate loop on a
// seeded topology, while spending strictly fewer propagations.
func TestCarryForwardMatchesReference(t *testing.T) {
	topo := richDAG(t, 42, 24, 4, false)
	cfg := Config{Utility: LinearUtility{}, MaxIters: 120, Gradient: GradientFiniteDiff}
	refCPU, refEvals := referenceSolveFD(topo, cfg)
	alloc, err := Solve(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for j := range refCPU {
		if alloc.CPU[j] != refCPU[j] {
			t.Fatalf("iterate diverged at PE %d: carry-forward %.17g vs reference %.17g",
				j, alloc.CPU[j], refCPU[j])
		}
	}
	// Solve's final Objective recompute adds one forward pass; the carry-
	// forward still nets one saved propagation per phase-1 iteration.
	if alloc.Evals >= refEvals {
		t.Errorf("carry-forward used %d evals, reference %d — no propagation saved", alloc.Evals, refEvals)
	}
	t.Logf("evals: carry-forward %d vs reference %d", alloc.Evals, refEvals)
}

// TestAnalyticMatchesFiniteDiffQuality runs both gradient engines to
// convergence on a generated p=200 topology: the analytic solve must land
// within 1% of the finite-difference objective while spending at least 10×
// fewer propagations (the deterministic stand-in for the wall-clock
// criterion; the E13 bench gate measures the p=1000 wall times).
func TestAnalyticMatchesFiniteDiffQuality(t *testing.T) {
	topo, err := graph.Generate(graph.DefaultGenConfig(200, 20, 99))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Utility: LinearUtility{}, MinShare: 0.02, MaxIters: 2000}
	an, err := Solve(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Gradient = GradientFiniteDiff
	fd, err := Solve(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if an.Objective < 0.99*fd.Objective {
		t.Errorf("analytic objective %.4f below 99%% of finite-difference %.4f", an.Objective, fd.Objective)
	}
	if 10*an.Evals > fd.Evals {
		t.Errorf("analytic used %d evals, finite-difference %d — want ≥ 10× fewer", an.Evals, fd.Evals)
	}
	t.Logf("objective: analytic %.2f (%d evals) vs fd %.2f (%d evals)",
		an.Objective, an.Evals, fd.Objective, fd.Evals)
}

// TestSolveObjectiveMatchesRepropagation is the MinShare staleness
// regression: a weight-0 sink PE that linear utility starves to ~0 CPU
// gets floored by MinShare, shrinking the productive PEs' shares — so the
// pre-MinShare bestObj overstates the returned vector. The returned
// Objective must match an independent re-propagation of the returned CPU
// exactly, and must differ from the unfloored solve's objective (proving
// the two values demonstrably diverge on this config).
func TestSolveObjectiveMatchesRepropagation(t *testing.T) {
	// Asymmetric costs keep the cold start off the exactly-balanced ridge
	// where every per-coordinate difference quotient vanishes.
	topo := graph.New(1, 50)
	a := topo.AddPE(graph.PE{Service: uniformService(0.002)})
	b := topo.AddPE(graph.PE{Service: uniformService(0.004), Weight: 1})
	sink := topo.AddPE(graph.PE{Service: uniformService(0.004)})
	if err := topo.Connect(a, b); err != nil {
		t.Fatal(err)
	}
	if err := topo.Connect(a, sink); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddSource(graph.Source{Stream: 1, Target: a, Rate: 1000, Burst: graph.BurstSpec{Kind: graph.BurstPoisson}}); err != nil {
		t.Fatal(err)
	}
	for _, gm := range []GradientMode{GradientAnalytic, GradientFiniteDiff} {
		base, err := Solve(topo, Config{Utility: LinearUtility{}, Gradient: gm})
		if err != nil {
			t.Fatal(err)
		}
		floored, err := Solve(topo, Config{Utility: LinearUtility{}, MinShare: 0.25, Gradient: gm})
		if err != nil {
			t.Fatal(err)
		}
		if floored.Objective >= base.Objective-1e-6 {
			t.Fatalf("gm=%d: MinShare did not reduce the objective (%.6f vs %.6f) — regression scenario lost its bite",
				gm, floored.Objective, base.Objective)
		}
		_, rout, err := Propagate(topo, floored.CPU)
		if err != nil {
			t.Fatal(err)
		}
		want := 0.0
		for j := range topo.PEs {
			if w := topo.PEs[j].Weight; w > 0 {
				want += w * (LinearUtility{}).Value(rout[j])
			}
		}
		if diff := math.Abs(floored.Objective - want); diff > 1e-9*(math.Abs(want)+1) {
			t.Errorf("gm=%d: Objective %.12f but re-propagating the returned CPU gives %.12f", gm, floored.Objective, want)
		}
	}
}

// TestSolveElasticObjectiveMatchesRepropagation is the parsimony
// staleness regression: SolveElastic's returned Objective must match an
// independent PropagateElastic of the returned Replica matrix — i.e. it
// reflects the post-pruning, post-dust-snap slot vector, not the peak
// bestObj the ascent saw before parsimony removed tol-worth of replicas.
func TestSolveElasticObjectiveMatchesRepropagation(t *testing.T) {
	for _, seed := range []int64{6, 7, 8} {
		topo := richDAG(t, seed, 30, 5, true)
		ea, err := SolveElastic(topo, Config{Utility: LinearUtility{}, MaxIters: 400, Tol: 1e-4})
		if err != nil {
			t.Fatal(err)
		}
		_, rout, err := PropagateElastic(topo, ea.Replica)
		if err != nil {
			t.Fatal(err)
		}
		want := 0.0
		for j := range topo.PEs {
			if w := topo.PEs[j].Weight; w > 0 {
				want += w * (LinearUtility{}).Value(rout[j])
			}
		}
		if diff := math.Abs(ea.Objective - want); diff > 1e-9*(math.Abs(want)+1) {
			t.Errorf("seed %d: Objective %.12f but re-propagating the returned Replica gives %.12f",
				seed, ea.Objective, want)
		}
	}
}

// TestColdStartFlag covers the silent-fallback satellite: a missing or
// wrong-shaped warm start must be SURFACED via the ColdStart flag (the
// retarget loop turns it into retarget_cold_solves_total), and a correctly
// shaped one must clear it.
func TestColdStartFlag(t *testing.T) {
	topo := chainTopo(t, []float64{0.004, 0.004}, 100)
	cold, err := Solve(topo, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !cold.ColdStart {
		t.Errorf("no WarmStart: ColdStart = false, want true")
	}
	warm, err := Solve(topo, Config{WarmStart: cold.CPU})
	if err != nil {
		t.Fatal(err)
	}
	if warm.ColdStart {
		t.Errorf("matching WarmStart: ColdStart = true, want false")
	}
	// Shape mismatch (stale incumbent after a topology change).
	wrong, err := Solve(topo, Config{WarmStart: cold.CPU[:1]})
	if err != nil {
		t.Fatal(err)
	}
	if !wrong.ColdStart {
		t.Errorf("wrong-shaped WarmStart: ColdStart = false, want true")
	}
}

func TestColdStartFlagElastic(t *testing.T) {
	topo := hotTopo(t, 400, 0.004)
	cold, err := SolveElastic(topo, Config{Utility: LinearUtility{}, MaxIters: 300})
	if err != nil {
		t.Fatal(err)
	}
	if !cold.ColdStart {
		t.Errorf("no WarmStartReplica: ColdStart = false, want true")
	}
	warm, err := SolveElastic(topo, Config{Utility: LinearUtility{}, MaxIters: 300, WarmStartReplica: cold.Replica})
	if err != nil {
		t.Fatal(err)
	}
	if warm.ColdStart {
		t.Errorf("matching WarmStartReplica: ColdStart = true, want false")
	}
	// Row-count mismatch and slot-count mismatch both cold-start.
	badRows := cold.Replica[:1]
	if ea, err := SolveElastic(topo, Config{Utility: LinearUtility{}, MaxIters: 300, WarmStartReplica: badRows}); err != nil {
		t.Fatal(err)
	} else if !ea.ColdStart {
		t.Errorf("wrong row count: ColdStart = false, want true")
	}
	badSlots := make([][]float64, len(cold.Replica))
	for j := range badSlots {
		badSlots[j] = append([]float64{}, cold.Replica[j]...)
	}
	badSlots[0] = append(badSlots[0], 0.1)
	if ea, err := SolveElastic(topo, Config{Utility: LinearUtility{}, MaxIters: 300, WarmStartReplica: badSlots}); err != nil {
		t.Fatal(err)
	} else if !ea.ColdStart {
		t.Errorf("wrong slot count: ColdStart = false, want true")
	}
}

// TestProjectorZeroAlloc gates the projection scratch reuse: after one
// warm-up call the per-node simplex projection must not allocate.
func TestProjectorZeroAlloc(t *testing.T) {
	topo := richDAG(t, 11, 40, 6, false)
	pj := newNodeProjector(topo)
	rng := sim.NewRand(3)
	x := make([]float64, topo.NumPEs())
	for i := range x {
		x[i] = 2 * rng.Float64() // infeasible on purpose: force the threshold path
	}
	pj.project(x, 1) // warm up the scratch
	allocs := testing.AllocsPerRun(100, func() {
		for i := range x {
			x[i] = 2 * x[i]
		}
		pj.project(x, 1)
	})
	if allocs != 0 {
		t.Errorf("projector.project allocates %.1f times per call, want 0", allocs)
	}
}

// TestAdjointEvalZeroAlloc gates the workspace reuse: one forward+backward
// sweep (the per-iteration cost of the analytic engine) must not allocate.
func TestAdjointEvalZeroAlloc(t *testing.T) {
	topo := richDAG(t, 12, 40, 6, false)
	order, err := topo.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	ws := newAdjoint(topo, order, nil)
	x := make([]float64, topo.NumPEs())
	grad := make([]float64, topo.NumPEs())
	rng := sim.NewRand(4)
	for i := range x {
		x[i] = rng.Float64() / 8
	}
	// Pre-boxed: converting the concrete utility to the interface inside
	// the closure would itself allocate and mask the workspace behavior.
	var util Utility = LogUtility{Scale: 10}
	allocs := testing.AllocsPerRun(100, func() {
		ws.evalGrad(x, util, grad)
	})
	if allocs != 0 {
		t.Errorf("evalGrad allocates %.1f times per call, want 0", allocs)
	}
}

// TestSolveDeadlineStillHonoredFD keeps the deadline polling inside the
// finite-difference gradient loop covered now that it is mode-gated.
func TestSolveDeadlineStillHonoredFD(t *testing.T) {
	topo, err := graph.Generate(graph.DefaultGenConfig(400, 40, 5))
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := Solve(topo, Config{
		Utility: LinearUtility{}, MaxIters: 100000,
		Gradient: GradientFiniteDiff, Deadline: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !alloc.DeadlineExceeded {
		t.Errorf("50ms deadline on a p=400 finite-difference solve not reported exceeded")
	}
}
