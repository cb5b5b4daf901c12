package optimize

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"sort"
	"testing"

	"aces/internal/graph"
)

// floatHash is the SHA-256 of the values' IEEE-754 bits followed by the
// counters, so any changed bit of any output shows.
func floatHash(vals []float64, counters ...int) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, c := range counters {
		binary.LittleEndian.PutUint64(b[:], uint64(c))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// orderedRichDAG is richDAG with its edges re-inserted in (To, From)
// order. richDAG connects each PE's feeds in map iteration order, so its
// Up() order — and with it the floating-point order of flow sums and the
// first-minimizer choice at joins — changes from run to run; a golden
// hash needs one fixed topology.
func orderedRichDAG(t testing.TB, seed int64, p, nodes int, elastic bool) *graph.Topology {
	t.Helper()
	topo := richDAG(t, seed, p, nodes, elastic)
	sort.Slice(topo.Edges, func(a, b int) bool {
		ea, eb := topo.Edges[a], topo.Edges[b]
		if ea.To != eb.To {
			return ea.To < eb.To
		}
		return ea.From < eb.From
	})
	if err := topo.Rebuild(); err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestSolveGoldenHashes pins the solvers' outputs bit for bit: cold and
// warm Solve on a generated deployment under the paper-scale benchmark's
// configuration, Solve under the default utility on a DAG with joins,
// overheads and multiplicities, and cold and warm SolveElastic on a
// replicated DAG. Each hash covers the returned CPU (or replica) vector,
// WeightedThroughput, Iterations and Evals; the values were recorded
// before the flat adjoint kernel and the order-cached projection, whose
// contract is to change the solve's speed and nothing else.
//
// The hashes are for amd64, where Go never fuses multiply-adds and the
// math routines are fixed; other architectures may round differently.
func TestSolveGoldenHashes(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hashes recorded on amd64, running on %s", runtime.GOARCH)
	}
	gen, err := graph.Generate(graph.DefaultGenConfig(1000, 100, 1))
	if err != nil {
		t.Fatal(err)
	}
	bench := Config{MaxIters: 2500, Utility: LinearUtility{}, MinShare: 0.02}
	solve := func(topo *graph.Topology, cfg Config) *Allocation {
		t.Helper()
		a, err := Solve(topo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	elastic := func(topo *graph.Topology, cfg Config) *ElasticAllocation {
		t.Helper()
		a, err := SolveElastic(topo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	hashAlloc := func(a *Allocation) string {
		return floatHash(append(append([]float64(nil), a.CPU...), a.WeightedThroughput), a.Iterations, a.Evals)
	}
	hashElastic := func(a *ElasticAllocation) string {
		var flat []float64
		for _, row := range a.Replica {
			flat = append(flat, row...)
		}
		return floatHash(append(flat, a.WeightedThroughput), a.Iterations, a.Evals)
	}

	cold := solve(gen, bench)
	// The warm start is the cold optimum nudged off it, as a re-solve
	// after a rate change would see it.
	warmStart := append([]float64(nil), cold.CPU...)
	for j := range warmStart {
		warmStart[j] *= 1 + 0.1*math.Sin(float64(j))
	}
	warmCfg := bench
	warmCfg.WarmStart = warmStart
	warm := solve(gen, warmCfg)

	rich := orderedRichDAG(t, 31, 120, 8, false)
	logSolve := solve(rich, Config{MaxIters: 1500})

	rep := orderedRichDAG(t, 32, 90, 8, true)
	elCold := elastic(rep, Config{Utility: LinearUtility{}, MaxIters: 800})
	elWarm := elastic(rep, Config{Utility: LogUtility{Scale: 20}, MaxIters: 800, WarmStartReplica: elCold.Replica})

	for _, tc := range []struct{ name, got, want string }{
		{"solve-cold-generated-1000", hashAlloc(cold), "5812f3b8a2de135e398c90624e0dafc961377951f893a1bd4e339a9faa09a1df"},
		{"solve-warm-generated-1000", hashAlloc(warm), "29f9d3507209fb72823e4491c9ed6eb3e9baf646e532523fb001aba6da754abe"},
		{"solve-log-rich-120", hashAlloc(logSolve), "5cbc71e72d79ad9dbbf7e992df31adfdac5eeb92c30fed8db475c93979cb1e94"},
		{"elastic-cold-rich-90", hashElastic(elCold), "a95cdced925cca138d0b5e35fab3adce783861e861a04e9d669e8dfebecc399f"},
		{"elastic-warm-rich-90", hashElastic(elWarm), "c2d0feb021f456e8ad3d2a35022ad7d630fcb2167c82814c195bd900e88bbfe4"},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: hash %s, want %s", tc.name, tc.got, tc.want)
		}
	}
}
