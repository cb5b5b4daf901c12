package graph

import (
	"fmt"
	"slices"
	"sort"

	"aces/internal/sdo"
	"aces/internal/sim"
	"aces/internal/workload"
)

// GenConfig parameterizes the random topology generator. Defaults mirror
// the paper's experimental setup (§VI-C): maximum fan-out 4, maximum fan-in
// 3, 20% of PEs with multiple inputs or outputs, B = 50 SDOs.
type GenConfig struct {
	// NumPEs is the total PE count (ingress + intermediate + egress).
	NumPEs int
	// NumNodes is the processing-node count.
	NumNodes int
	// NumIngress and NumEgress size the boundary layers. Defaults: ~15% of
	// PEs each, at least 1.
	NumIngress, NumEgress int
	// MaxFanIn and MaxFanOut bound vertex degrees (paper: 3 and 4).
	MaxFanIn, MaxFanOut int
	// MultiIOFrac is the fraction of PEs given multiple inputs or outputs
	// (paper: 0.2).
	MultiIOFrac float64
	// Layers is the number of intermediate layers; 0 picks a depth that
	// keeps layers roughly as wide as the ingress tier.
	Layers int
	// Service is the base two-state cost model; per-PE costs are jittered
	// ±30% around it so PEs are heterogeneous.
	Service workload.ServiceParams
	// CostJitter scales the per-PE cost jitter (0 disables, default 0.3).
	CostJitter float64
	// WeightLo and WeightHi bound the uniform egress weights (default
	// [0.5, 2.0]); intermediate PEs get weight 0 per §III-A.
	WeightLo, WeightHi float64
	// LoadFactor drives each source at LoadFactor × the fluid bottleneck
	// capacity; values > 1 create the sustained overload the paper targets
	// ("where over-provisioning is not an option"). Default 1.3.
	LoadFactor float64
	// Burst is the source arrival shape (default: on/off with peak 2×
	// the mean and 100 ms mean ON dwells).
	Burst BurstSpec
	// BufferSize is the per-PE input buffer B in SDOs (paper: 50).
	BufferSize int
	// Seed makes generation deterministic.
	Seed int64
}

// DefaultGenConfig returns the paper's §VI-C configuration for the given
// scale.
func DefaultGenConfig(numPEs, numNodes int, seed int64) GenConfig {
	return GenConfig{
		NumPEs:      numPEs,
		NumNodes:    numNodes,
		MaxFanIn:    3,
		MaxFanOut:   4,
		MultiIOFrac: 0.2,
		Service:     workload.DefaultServiceParams(),
		CostJitter:  0.3,
		WeightLo:    0.5,
		WeightHi:    2.0,
		LoadFactor:  1.3,
		Burst:       BurstSpec{Kind: BurstOnOff, PeakFactor: 2, MeanOn: 0.1},
		BufferSize:  50,
		Seed:        seed,
	}
}

func (c *GenConfig) fillDefaults() error {
	if c.NumPEs < 2 {
		return fmt.Errorf("graph: need at least 2 PEs, got %d", c.NumPEs)
	}
	if c.NumNodes < 1 {
		return fmt.Errorf("graph: need at least 1 node, got %d", c.NumNodes)
	}
	if c.NumIngress <= 0 {
		c.NumIngress = max(1, c.NumPEs*15/100)
	}
	if c.NumEgress <= 0 {
		c.NumEgress = max(1, c.NumPEs*15/100)
	}
	if c.NumIngress+c.NumEgress > c.NumPEs {
		return fmt.Errorf("graph: ingress %d + egress %d exceeds %d PEs", c.NumIngress, c.NumEgress, c.NumPEs)
	}
	if c.MaxFanIn <= 0 {
		c.MaxFanIn = 3
	}
	if c.MaxFanOut <= 0 {
		c.MaxFanOut = 4
	}
	if c.MultiIOFrac < 0 || c.MultiIOFrac > 1 {
		return fmt.Errorf("graph: MultiIOFrac %g out of [0,1]", c.MultiIOFrac)
	}
	if c.Service.T0 == 0 {
		c.Service = workload.DefaultServiceParams()
	}
	if c.WeightHi <= 0 {
		c.WeightLo, c.WeightHi = 0.5, 2.0
	}
	if c.LoadFactor <= 0 {
		c.LoadFactor = 1.3
	}
	if c.Burst.Kind == 0 {
		c.Burst = BurstSpec{Kind: BurstOnOff, PeakFactor: 2, MeanOn: 0.1}
	}
	if c.BufferSize <= 0 {
		c.BufferSize = 50
	}
	intermediate := c.NumPEs - c.NumIngress - c.NumEgress
	if c.Layers <= 0 {
		width := max(1, c.NumIngress)
		c.Layers = max(1, intermediate/max(1, width))
		if c.Layers > 8 {
			c.Layers = 8
		}
	}
	return nil
}

// Generate builds a random layered DAG topology per the configuration,
// assigns PEs to nodes with load-aware placement, attaches bursty sources
// calibrated to the fluid capacity, and validates the result.
func Generate(cfg GenConfig) (*Topology, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	rng := sim.Substream(cfg.Seed, 0xB0B0)
	t := New(cfg.NumNodes, cfg.BufferSize)

	intermediate := cfg.NumPEs - cfg.NumIngress - cfg.NumEgress
	// Layer sizes: ingress, L intermediate layers (as equal as possible),
	// egress.
	layers := make([][]sdo.PEID, 0, cfg.Layers+2)
	mkPE := func(name string, weight float64) sdo.PEID {
		svc := cfg.Service
		if cfg.CostJitter > 0 {
			j := 1 + rng.Uniform(-cfg.CostJitter, cfg.CostJitter)
			svc.T0 *= j
			svc.T1 *= j
		}
		return t.AddPE(PE{Name: name, Weight: weight, Service: svc})
	}

	ingress := make([]sdo.PEID, cfg.NumIngress)
	for i := range ingress {
		ingress[i] = mkPE(fmt.Sprintf("ingress%d", i), 0)
	}
	layers = append(layers, ingress)
	remaining := intermediate
	for l := 0; l < cfg.Layers && remaining > 0; l++ {
		sz := remaining / (cfg.Layers - l)
		if sz == 0 {
			sz = 1
		}
		layer := make([]sdo.PEID, sz)
		for i := range layer {
			layer[i] = mkPE(fmt.Sprintf("mid%d_%d", l, i), 0)
		}
		layers = append(layers, layer)
		remaining -= sz
	}
	egress := make([]sdo.PEID, cfg.NumEgress)
	for i := range egress {
		egress[i] = mkPE(fmt.Sprintf("egress%d", i), rng.Uniform(cfg.WeightLo, cfg.WeightHi))
	}
	layers = append(layers, egress)

	outDeg := make([]int, t.NumPEs())
	inDeg := make([]int, t.NumPEs())
	connect := func(from, to sdo.PEID) error {
		if err := t.Connect(from, to); err != nil {
			return err
		}
		outDeg[from]++
		inDeg[to]++
		return nil
	}

	// Wire each non-ingress layer to the previous layer: every PE picks
	// 1 parent normally, 2..MaxFanIn with probability MultiIOFrac, among
	// parents that still have fan-out budget.
	var chosen []sdo.PEID
	for li := 1; li < len(layers); li++ {
		prev := layers[li-1]
		for _, pe := range layers[li] {
			fanIn := 1
			if rng.Float64() < cfg.MultiIOFrac && cfg.MaxFanIn > 1 {
				fanIn = 2 + rng.Intn(cfg.MaxFanIn-1)
			}
			// Parents are tried by least out-degree so fan-out budget
			// spreads evenly, ties broken randomly via Perm: one pass per
			// out-degree bucket, each walking the permutation, which is
			// the order of a stable sort of the permuted layer by
			// out-degree. A parent wired in bucket d sits in bucket d+1
			// by the time that bucket is walked, so it is skipped there.
			perm := rng.Perm(len(prev))
			chosen = chosen[:0]
			for d := 0; d < cfg.MaxFanOut && len(chosen) < fanIn; d++ {
				for _, i := range perm {
					p := prev[i]
					if outDeg[p] != d || slices.Contains(chosen, p) {
						continue
					}
					if err := connect(p, pe); err != nil {
						return nil, err
					}
					chosen = append(chosen, p)
					if len(chosen) == fanIn {
						break
					}
				}
			}
			if len(chosen) == 0 {
				// Every parent is at max fan-out: steal from the least
				// loaded parent anyway, the first of minimum out-degree in
				// permutation order (violating fan-out is better than a
				// starving PE; with paper parameters this never triggers).
				least := prev[perm[0]]
				for _, i := range perm[1:] {
					if outDeg[prev[i]] < outDeg[least] {
						least = prev[i]
					}
				}
				if err := connect(least, pe); err != nil {
					return nil, err
				}
			}
		}
		// Ensure every PE in the previous layer feeds someone.
		for _, p := range prev {
			if outDeg[p] > 0 {
				continue
			}
			kids := layers[li]
			best := kids[0]
			for _, kid := range kids[1:] {
				if inDeg[kid] < inDeg[best] {
					best = kid
				}
			}
			if err := connect(p, best); err != nil {
				return nil, err
			}
		}
	}

	// Sources: one per ingress PE, rate = LoadFactor × fluid capacity.
	// Sources must exist before placement so UnitDemand sees real load.
	for i, pe := range ingress {
		if err := t.AddSource(Source{
			Stream: sdo.StreamID(i + 1),
			Target: pe,
			Rate:   1, // placeholder; calibrated below
			Burst:  cfg.Burst,
		}); err != nil {
			return nil, err
		}
	}
	placePEs(t, rng)
	capRate, err := t.BottleneckIngressRate()
	if err != nil {
		return nil, err
	}
	for i := range t.Sources {
		t.Sources[i].Rate = cfg.LoadFactor * capRate
	}

	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("graph: generated topology invalid: %w", err)
	}
	return t, nil
}

// placePEs assigns PEs to nodes balancing expected CPU demand: PEs are
// considered in decreasing demand order and each goes to the currently
// least-loaded node (LPT heuristic). Demand uses the unit-load propagation
// so heavily-fed PEs weigh more.
func placePEs(t *Topology, rng *sim.Rand) {
	demand, err := t.UnitDemand()
	if err != nil {
		// No order exists only for cyclic graphs, which Generate never
		// builds; fall back to uniform random placement.
		for i := range t.PEs {
			t.PEs[i].Node = sdo.NodeID(rng.Intn(t.NumNodes))
		}
		return
	}
	type item struct {
		pe   int
		load float64
	}
	items := make([]item, len(t.PEs))
	for i := range t.PEs {
		w := demand[i] * t.PEs[i].Service.EffectiveCost()
		items[i] = item{pe: i, load: w}
	}
	sort.SliceStable(items, func(a, b int) bool { return items[a].load > items[b].load })
	nodeLoad := make([]float64, t.NumNodes)
	nodeCount := make([]int, t.NumNodes)
	for _, it := range items {
		best := 0
		for n := 1; n < t.NumNodes; n++ {
			// Least loaded wins; PE count breaks ties so zero-demand PEs
			// still spread across nodes.
			if nodeLoad[n] < nodeLoad[best] ||
				(nodeLoad[n] == nodeLoad[best] && nodeCount[n] < nodeCount[best]) {
				best = n
			}
		}
		t.PEs[it.pe].Node = sdo.NodeID(best)
		nodeLoad[best] += it.load
		nodeCount[best]++
	}
}
