package streamsim

import (
	"testing"

	"aces/internal/graph"
	"aces/internal/policy"
)

// TestStepPlansWithoutAllocating guards the per-node planners: step()
// runs every Δt on every node, and planning through the package-level
// controller functions built a fresh Planner and scratch slices each
// time. With one Planner held per node, a steady-state tick of an idle
// deployment must not allocate under any planning policy.
func TestStepPlansWithoutAllocating(t *testing.T) {
	topo := buildChain(t, 6, 3, 0.001, 100, graph.BurstSpec{Kind: graph.BurstDeterministic})
	cpu := []float64{0.4, 0.4, 0.4, 0.4, 0.4, 0.4}
	for _, pol := range []policy.Policy{policy.ACES, policy.ACESStrictCPU, policy.UDP, policy.LockStep} {
		eng, err := New(Config{Topo: topo, Policy: pol, CPU: cpu, Duration: 1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		now := 0.0
		step := func() {
			now += eng.cfg.Dt
			eng.step(now)
		}
		step() // first tick sizes the scratch and inserts feedback keys
		step()
		if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
			t.Errorf("%v: step allocates %.1f times per tick, want 0", pol, allocs)
		}
	}
}
