package optimize

import (
	"fmt"
	"math"
	"testing"

	"aces/internal/graph"
)

// kernelPoint is a mid-ascent point of the paper-scale benchmark's solve
// (5000 PEs / 500 nodes): the topology, its workspace and projector, an
// iterate 50 iterations in, and the gradient there.
func kernelPoint(b *testing.B) (*adjoint, *projector, []float64, []float64) {
	b.Helper()
	topo, err := graph.Generate(graph.DefaultGenConfig(5000, 500, 1))
	if err != nil {
		b.Fatal(err)
	}
	mid, err := Solve(topo, Config{MaxIters: 50, Utility: LinearUtility{}})
	if err != nil {
		b.Fatal(err)
	}
	order, err := topo.TopoOrder()
	if err != nil {
		b.Fatal(err)
	}
	ws := newAdjoint(topo, order, nil)
	grad := make([]float64, topo.NumPEs())
	ws.evalGrad(mid.CPU, LinearUtility{}, grad)
	return ws, newNodeProjector(topo), mid.CPU, grad
}

// BenchmarkAdjointForward times one forward propagation plus the
// objective (a line-search evaluation) at 5000 PEs.
func BenchmarkAdjointForward(b *testing.B) {
	ws, _, x, _ := kernelPoint(b)
	var util Utility = LinearUtility{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.eval(x, util)
	}
}

// BenchmarkAdjointEvalGrad times one forward plus one backward sweep (the
// gradient of an ascent iteration) at 5000 PEs.
func BenchmarkAdjointEvalGrad(b *testing.B) {
	ws, _, x, grad := kernelPoint(b)
	var util Utility = LinearUtility{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.evalGrad(x, util, grad)
	}
}

// BenchmarkProject times the per-node simplex projection of line-search
// trials at 5000 PEs: each call projects x + step·∇/‖∇‖ with the step
// cycling through a few halvings, as consecutive trials do.
func BenchmarkProject(b *testing.B) {
	_, pj, x, grad := kernelPoint(b)
	gnorm := 0.0
	for _, g := range grad {
		gnorm += g * g
	}
	gnorm = math.Sqrt(gnorm)
	trial := make([]float64, len(x))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step := 0.05 / float64(int(1)<<(i%4))
		for j := range x {
			trial[j] = x[j] + step*grad[j]/gnorm
		}
		pj.project(trial, 1)
	}
}

// BenchmarkSolveCold5k times the paper-scale benchmark's cold solve
// (5000 PEs / 500 nodes, linear utility, 2% floor, 2500 iterations).
func BenchmarkSolveCold5k(b *testing.B) {
	topo, err := graph.Generate(graph.DefaultGenConfig(5000, 500, 1))
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{MaxIters: 2500, Utility: LinearUtility{}, MinShare: 0.02}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(topo, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveScale times the monolithic cold solve E13 runs, 2500
// iterations with the 2% floor, at 10k, 25k and 50k PEs (10 PEs per
// node). Run it once per scale:
//
//	go test -run '^$' -bench SolveScale -benchtime 1x ./internal/optimize
func BenchmarkSolveScale(b *testing.B) {
	for _, pes := range []int{10000, 25000, 50000} {
		b.Run(fmt.Sprintf("pes=%d", pes), func(b *testing.B) {
			topo, err := graph.Generate(graph.DefaultGenConfig(pes, pes/10, 1))
			if err != nil {
				b.Fatal(err)
			}
			cfg := Config{MaxIters: 2500, Utility: LinearUtility{}, MinShare: 0.02}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Solve(topo, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
