package main

import (
	"fmt"
	"math"
	"time"

	"aces/internal/graph"
	"aces/internal/optimize"
	"aces/internal/policy"
	"aces/internal/streamsim"
)

// sim-5k: a §VI-C generated deployment at paper scale, simulated under
// ACES with a periodic warm-started tier-1 re-solve.
const (
	simPEs   = 5000
	simNodes = 500
	// simEvery is the re-solve period in simulated seconds.
	simEvery = 5.0
	// simTopoSeed fixes the generated deployment. The run seed drives the
	// simulator: every source's arrival process and every PE's service
	// states. A topology per seed moves the bottleneck the sources are
	// sized against, which swung lat_p99_ms by 70% and weighted_tput by
	// 9% between seeds — more than any bound could absorb.
	simTopoSeed = 1
	// simSetups is how many times a run repeats set-up; setup_s is the
	// median.
	simSetups = 3
	// simSecondsPerWall sizes the simulated horizon from the run's wall
	// budget. The horizon depends only on -seconds, so one seed always
	// simulates the same thing.
	simSecondsPerWall = 1.5
	// nodeSumTol is the slack allowed on a node's summed CPU targets.
	nodeSumTol = 1e-6
)

// solveConfig is the paper-scale suite's tier-1 configuration: linear
// utility (the weighted-throughput objective itself), a 2% floor so every
// PE stays runnable, and an iteration bound instead of a wall deadline so
// the result is the same on every run of a seed.
func solveConfig(warm []float64) optimize.Config {
	return optimize.Config{MaxIters: 2500, Utility: optimize.LinearUtility{}, MinShare: 0.02, WarmStart: warm}
}

// checkAllocation reports why a tier-1 allocation is unusable: a
// non-finite or negative target, or a node whose targets sum above 1.
func checkAllocation(t *graph.Topology, cpu []float64) error {
	if len(cpu) != t.NumPEs() {
		return fmt.Errorf("allocation has %d targets for %d PEs", len(cpu), t.NumPEs())
	}
	sums := make([]float64, t.NumNodes)
	for j, c := range cpu {
		if math.IsNaN(c) || math.IsInf(c, 0) || c < 0 {
			return fmt.Errorf("PE %d target %g", j, c)
		}
		sums[t.PEs[j].Node] += c
	}
	for n, s := range sums {
		if s > 1+nodeSumTol {
			return fmt.Errorf("node %d targets sum to %.9f", n, s)
		}
	}
	return nil
}

func runSim(o options) (*result, error) {
	rss := startRSS(5 * time.Millisecond)
	defer rss.close()
	horizon := math.Round(o.seconds * simSecondsPerWall)
	fmt.Printf("deployment: graph.Generate %d PEs / %d nodes (topology seed %d), streamsim ACES seed %d, %gs simulated, re-solve every %gs\n",
		simPEs, simNodes, simTopoSeed, o.seed, horizon, simEvery)
	res := &result{correct: true, metrics: map[string]float64{}}

	var (
		topo             *graph.Topology
		eng              *streamsim.Engine
		setups, gens     []float64
		colds, coldIters []float64
		coldObj          float64
	)
	for i := 0; i < simSetups; i++ {
		t0 := time.Now()
		var err error
		topo, err = graph.Generate(graph.DefaultGenConfig(simPEs, simNodes, simTopoSeed))
		if err != nil {
			return nil, err
		}
		gens = append(gens, ms(time.Since(t0)))
		t1 := time.Now()
		cold, err := optimize.Solve(topo, solveConfig(nil))
		if err != nil {
			return nil, fmt.Errorf("cold solve: %w", err)
		}
		colds = append(colds, ms(time.Since(t1)))
		coldIters = append(coldIters, float64(cold.Iterations))
		if err := checkAllocation(topo, cold.CPU); err != nil {
			return nil, fmt.Errorf("cold solve: %w", err)
		}
		coldObj = cold.WeightedThroughput
		eng, err = streamsim.New(streamsim.Config{
			Topo: topo, Policy: policy.ACES, CPU: cold.CPU, Duration: horizon, Seed: o.seed,
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	fmt.Printf("set-ups %v s (generate %v ms, cold solve %v ms)\n", setups, gens, colds)

	// Each epoch times a warm-started solve and checks what it returns; a
	// failed epoch keeps the incumbent targets and counts as failed.
	var solves, iters []float64
	var lastObj float64
	_, err := eng.StartRetarget(simEvery, func(epoch int, cpu []float64) []float64 {
		res.attempted++
		t0 := time.Now()
		alloc, err := optimize.Solve(topo, solveConfig(cpu))
		solves = append(solves, ms(time.Since(t0)))
		if err == nil {
			err = checkAllocation(topo, alloc.CPU)
		}
		if err != nil {
			res.failed++
			res.fail("epoch %d: %v", epoch, err)
			return nil
		}
		iters = append(iters, float64(alloc.Iterations))
		lastObj = alloc.WeightedThroughput
		return alloc.CPU
	})
	if err != nil {
		return nil, err
	}
	mem0, cpu0, w0 := readMem(), readCPU(), time.Now()
	rep := eng.Run()
	wall := time.Since(w0)
	cpu, mem1 := readCPU().sub(cpu0), readMem()

	if res.attempted == 0 {
		return nil, fmt.Errorf("horizon %gs ran no re-solve", horizon)
	}
	if rep.Degenerate || rep.Deliveries == 0 {
		res.fail("simulation delivered nothing")
	}
	var solveSum float64
	for _, s := range solves {
		solveSum += s
	}
	steps := float64(eng.Sim().Steps())
	self := wall.Seconds() - solveSum/1e3

	res.set("setup_s", median(setups))
	res.set("goodput_sdo_s", float64(rep.Deliveries)/rep.Duration)
	res.set("weighted_tput", rep.WeightedThroughput)
	if rep.Deliveries > 0 {
		res.set("cpu_us_per_sdo", float64(cpu.total())/1e3/float64(rep.Deliveries))
	}
	res.set("lat_p50_ms", 1e3*rep.P50)
	res.set("lat_p99_ms", 1e3*rep.P99)
	res.set("rss_peak_mb", rss.take())
	res.notef("goodput, weighted_tput and latency are simulated (per simulated second); cpu_us_per_sdo is process CPU over the run per simulated delivery")

	res.set("graph.generate_ms", median(gens))
	res.set("optimize.cold_solve_ms", median(colds))
	res.set("optimize.solve_ms.max", quantile(solves, 1))
	res.set("optimize.iters", median(iters))
	res.set("optimize.objective", lastObj)
	res.set("epoch_solve_ms", median(solves))
	res.set("sim_wall_s", wall.Seconds())
	res.set("sim_lat_p99_ms", 1e3*rep.P99)
	res.set("streamsim.self_s", self)
	res.set("streamsim.steps", steps)
	if steps > 0 {
		res.set("streamsim.ns_per_step", self*1e9/steps)
	}
	res.set("streamsim.deliveries", float64(rep.Deliveries))
	res.set("streamsim.drops", float64(rep.InputDrops+rep.InFlightDrops))
	if rep.Deliveries > 0 {
		res.set("go.alloc_b_per_sdo", float64(mem1.totalAlloc-mem0.totalAlloc)/float64(rep.Deliveries))
	}
	res.set("go.gc_count", float64(mem1.numGC-mem0.numGC))
	res.set("go.gc_pause_ms", ms(time.Duration(mem1.pauseNs-mem0.pauseNs)))
	if cpu.total() > 0 {
		res.set("proc.sys_frac", float64(cpu.sys)/float64(cpu.total()))
	}
	res.notef("%d epochs, warm solves %v ms (%v iterations); cold solve %v iterations, objective %.1f",
		len(solves), solves, iters, coldIters, coldObj)
	res.notef("simulated %gs in %.2fs wall (%.2fs solving), %d deliveries, weighted %.1f w/s",
		horizon, wall.Seconds(), solveSum/1e3, rep.Deliveries, rep.WeightedThroughput)
	return res, nil
}
