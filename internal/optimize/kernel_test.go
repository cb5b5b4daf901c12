package optimize

import (
	"math"
	"sort"
	"testing"

	"aces/internal/graph"
	"aces/internal/sdo"
	"aces/internal/sim"
)

// simplexThresholdRef is the sort-based Duchi et al. (2008) threshold the
// projector's cached-order search must reproduce bit for bit: θ for v
// onto {x ≥ 0, Σ x = z}, scanning a fresh ascending sort backwards.
func simplexThresholdRef(v []float64, z float64) (theta float64, feasible bool) {
	u := append([]float64(nil), v...)
	sort.Float64s(u)
	n := len(u)
	var css, cssAtRho float64
	rho := -1
	for i := 0; i < n; i++ {
		ui := u[n-1-i]
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

// projectSimplex returns the Euclidean projection of v onto
// {x ≥ 0, Σ x = z} (Duchi et al. 2008), through the reference threshold.
func projectSimplex(v []float64, z float64) []float64 {
	out := make([]float64, len(v))
	theta, feasible := simplexThresholdRef(v, z)
	if !feasible {
		return out
	}
	for i, x := range v {
		if x-theta > 0 {
			out[i] = x - theta
		}
	}
	return out
}

// projectRef is the per-group projection with a fresh sort per group —
// the projector's behavior before it cached each group's order.
func projectRef(groups [][]int, x []float64, headroom float64) {
	for _, ids := range groups {
		if len(ids) == 0 {
			continue
		}
		vals := make([]float64, len(ids))
		sum := 0.0
		for i, id := range ids {
			v := x[id]
			if v < 0 {
				v = 0
			}
			vals[i] = v
			sum += v
		}
		if sum <= headroom {
			for i, id := range ids {
				x[id] = vals[i]
			}
			continue
		}
		theta, feasible := simplexThresholdRef(vals, headroom)
		for i, id := range ids {
			x[id] = 0
			if v := vals[i] - theta; feasible && v > 0 {
				x[id] = v
			}
		}
	}
}

// TestProjectMatchesSortReference drives one projector through a long
// sequence of projections — values drifting by small steps (the cached
// order's common case), fresh random draws, exact ties, negatives, zeros,
// under-budget groups and a group large enough to exhaust the insertion
// budget — and requires every output bit to equal the sort-based
// reference.
func TestProjectMatchesSortReference(t *testing.T) {
	rng := sim.NewRand(77)
	sizes := []int{1, 2, 3, 5, 8, 13, 40, 300}
	var groups [][]int
	n := 0
	for _, sz := range sizes {
		g := make([]int, sz)
		for i := range g {
			g[i] = n
			n++
		}
		groups = append(groups, g)
	}
	pj := &projector{groups: groups}
	x := make([]float64, n)
	draw := func() {
		for i := range x {
			switch k := rng.Intn(10); {
			case k == 0:
				x[i] = 0
			case k == 1:
				x[i] = -rng.Float64()
			case k == 2:
				x[i] = 0.25 // ties across and within groups
			case k == 3:
				x[i] = math.Copysign(0, -1)
			default:
				x[i] = 2 * rng.Float64()
			}
		}
	}
	draw()
	got := make([]float64, n)
	want := make([]float64, n)
	for call := 0; call < 400; call++ {
		switch {
		case call%50 == 0:
			draw()
		case call%7 == 0:
			// Scale down so some groups fall under budget.
			for i := range x {
				x[i] *= 0.05
			}
		default:
			for i := range x {
				x[i] += 0.01 * (rng.Float64() - 0.5)
			}
		}
		headroom := []float64{1, 0.8, 0.3, 5}[call%4]
		copy(got, x)
		copy(want, x)
		pj.project(got, headroom)
		projectRef(groups, want, headroom)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("call %d index %d: projector %v (%#x), reference %v (%#x)",
					call, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
		// Iterate from the projected point, as the ascent does.
		copy(x, got)
	}
}

// TestSortDescendingFallbackAllocFree covers the general-sort fallback
// the insertion budget triggers: reversing a large group's order must
// still sort correctly and allocate nothing.
func TestSortDescendingFallbackAllocFree(t *testing.T) {
	v := make([]float64, 500)
	for i := range v {
		v[i] = float64(i)
	}
	perm := make([]int32, len(v))
	for i := range perm {
		perm[i] = int32(i) // ascending: the worst case for a descending insertion sort
	}
	allocs := testing.AllocsPerRun(20, func() {
		for i := range perm {
			perm[i] = int32(i)
		}
		sortDescending(perm, v)
	})
	if allocs != 0 {
		t.Errorf("sortDescending fallback allocates %.1f times per call, want 0", allocs)
	}
	for i := 1; i < len(perm); i++ {
		if v[perm[i-1]] < v[perm[i]] {
			t.Fatalf("not descending at %d: %v < %v", i, v[perm[i-1]], v[perm[i]])
		}
	}
}

// alignedDAG is richDAG with every PE's Up() list re-ordered to follow the
// returned topological order. propagate sums a PE's feeds in the order its
// producers are processed, the adjoint in Up() order; on a DAG where the
// two orders agree the two passes perform the same floating-point
// additions, so their results must agree bit for bit. (On any other DAG
// they may differ in the last place — the adjoint's Up() order is its
// fixed contract, pinned by the golden solver hashes.)
func alignedDAG(t *testing.T, seed int64, p, nodes int, elastic bool) (*graph.Topology, []sdo.PEID) {
	t.Helper()
	topo := richDAG(t, seed, p, nodes, elastic)
	order, err := topo.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]int, topo.NumPEs())
	for k, j := range order {
		pos[j] = k
	}
	sort.SliceStable(topo.Edges, func(a, b int) bool {
		ea, eb := topo.Edges[a], topo.Edges[b]
		if ea.To != eb.To {
			return ea.To < eb.To
		}
		return pos[ea.From] < pos[eb.From]
	})
	if err := topo.Rebuild(); err != nil {
		t.Fatal(err)
	}
	// The edge set is unchanged, so the order is still topological.
	return topo, order
}

// TestForwardMatchesPropagate pins the flat forward pass against the
// independent propagate/propagateElastic oracles bit for bit — rates and
// the PE-id-order objective — on DAGs with joins, overheads,
// multiplicities and replica slots, at random points and at points with
// many slots starved to zero (dead ties).
func TestForwardMatchesPropagate(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		elastic := seed%2 == 0
		topo, order := alignedDAG(t, 100+seed, 60, 6, elastic)
		slotOf := make([][]int, topo.NumPEs())
		n := 0
		for j := range slotOf {
			for range topo.ReplicaPlacement(sdo.PEID(j)) {
				slotOf[j] = append(slotOf[j], n)
				n++
			}
		}
		var ws *adjoint
		if elastic {
			ws = newAdjoint(topo, order, slotOf)
		} else {
			ws = newAdjoint(topo, order, nil)
		}
		rng := sim.NewRand(seed)
		x := make([]float64, n)
		for point := 0; point < 6; point++ {
			for i := range x {
				x[i] = rng.Float64() / 4
				if point >= 3 && rng.Intn(3) == 0 {
					x[i] = 0
				}
			}
			var rin, rout []float64
			if elastic {
				rin, rout = propagateElastic(topo, order, slotOf, x)
			} else {
				rin, rout = propagate(topo, order, x)
			}
			ws.forward(x)
			gotIn, gotOut := ws.rates()
			for j := range rin {
				if math.Float64bits(gotIn[j]) != math.Float64bits(rin[j]) ||
					math.Float64bits(gotOut[j]) != math.Float64bits(rout[j]) {
					t.Fatalf("seed %d point %d PE %d: forward (%v, %v), oracle (%v, %v)",
						seed, point, j, gotIn[j], gotOut[j], rin[j], rout[j])
				}
			}
			want := 0.0
			for j := range topo.PEs {
				if w := topo.PEs[j].Weight; w > 0 {
					want += w * (LinearUtility{}).Value(rout[j])
				}
			}
			if got := ws.objective(LinearUtility{}); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d point %d: objective %v, PE-id-order sum %v", seed, point, got, want)
			}
		}
	}
}

// TestSolveAllocsIndependentOfIters is the solver allocation gate: a
// solve allocates its set-up (workspace, projection scratch, result
// vectors) and nothing per iteration, so the allocation count at MaxIters
// 50 equals the one at 500, for both solvers.
func TestSolveAllocsIndependentOfIters(t *testing.T) {
	topo, err := graph.Generate(graph.DefaultGenConfig(200, 20, 17))
	if err != nil {
		t.Fatal(err)
	}
	rep := richDAG(t, 21, 60, 8, true)
	count := func(iters int, elastic bool) float64 {
		return testing.AllocsPerRun(3, func() {
			var err error
			if elastic {
				_, err = SolveElastic(rep, Config{Utility: LinearUtility{}, MaxIters: iters})
			} else {
				_, err = Solve(topo, Config{Utility: LinearUtility{}, MinShare: 0.02, MaxIters: iters})
			}
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, elastic := range []bool{false, true} {
		short, long := count(50, elastic), count(500, elastic)
		if short != long {
			t.Errorf("elastic=%v: %.0f allocations at MaxIters 50, %.0f at 500 — the ascent allocates per iteration",
				elastic, short, long)
		}
	}
}
