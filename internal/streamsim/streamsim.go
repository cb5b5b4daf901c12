// Package streamsim is the calibrated simulator of the paper's evaluation
// (§VI-A): a discrete-time model of a distributed stream processing system
// in which control runs every Δt (the paper's sampling interval) while
// source arrivals and PE state switches evolve in continuous time on the
// event kernel.
//
// Each tick the engine (1) snapshots every PE's buffer, token balance and
// downstream feedback bound, (2) plans per-node CPU via the policy's
// planner, (3) lets PEs consume SDOs against their CPU budgets with
// carry-over of partially processed work, (4) forwards outputs under the
// policy's discipline (max-flow / fire-and-forget / min-flow blocking),
// staging them so data moves one hop per tick, and (5) runs the LQR flow
// controller and publishes r_max advertisements upstream for the ACES
// family. Metrics follow §III-A/§IV: weighted throughput at egress,
// end-to-end latency, split loss accounting and stability indicators.
package streamsim

import (
	"fmt"
	"math"

	"aces/internal/control"
	"aces/internal/controller"
	"aces/internal/graph"
	"aces/internal/metrics"
	"aces/internal/obs"
	"aces/internal/policy"
	"aces/internal/sdo"
	"aces/internal/sim"
	"aces/internal/workload"
)

// Config parameterizes one simulation run.
type Config struct {
	// Topo is the deployment to simulate (required, must validate).
	Topo *graph.Topology
	// Policy selects the flow/CPU discipline (required).
	Policy policy.Policy
	// CPU are the tier-1 targets c̄_j, indexed by PE (required; obtain from
	// optimize.Solve or supply externally).
	CPU []float64
	// Dt is the control period Δt in seconds (default 0.010).
	Dt float64
	// Duration is the simulated horizon in seconds (default 30).
	Duration float64
	// Warmup discards metrics before this time (default Duration/5).
	Warmup float64
	// Seed drives all randomness (sources, service models).
	Seed int64
	// B0Frac positions the buffer target b₀ = B0Frac × B (default 0.5,
	// the paper's b₀ = B/2).
	B0Frac float64
	// QWeight/RWeight tune the LQR design (defaults from
	// control.DefaultDesign).
	QWeight, RWeight float64
	// BurstTicks is the token-bucket depth in ticks of earnings
	// (default 40 — 0.4 s of banked entitlement at the default Δt, the
	// memory that lets ACES ride out state-dwell bursts).
	BurstTicks float64
	// SampleEvery is the stability-series sampling period in seconds
	// (default 0.1).
	SampleEvery float64
	// CostAlpha is the smoothing factor of the harmonic cost tracker
	// feeding the flow controller (default 0.35): larger tracks state
	// flips faster (fewer overflow drops at small buffers), smaller
	// advertises steadier rates.
	CostAlpha float64
	// LinkCapacity caps each node's EGRESS network bandwidth in SDOs/sec
	// for inter-node traffic (the paper manages "processor and network"
	// resources; intra-node delivery is free). 0 = unlimited (default).
	// SDOs exceeding the per-tick budget are dropped and counted as
	// in-flight loss.
	LinkCapacity float64
	// NetDelay adds an inter-node transit delay in seconds (rounded to
	// whole ticks) on top of the store-and-forward tick. 0 = default.
	NetDelay float64
	// Tracer enables per-SDO tracing in simulated time: ingress SDOs are
	// sampled, one span is recorded per hop, and losses end the trace —
	// the same span model the live runtime records, so traces from both
	// substrates are comparable. nil disables tracing.
	Tracer *obs.Tracer
	// Telemetry, when set, receives per-PE gauges (buffer occupancy,
	// token level, r_max) sampled on the stability cadence, with snapshot
	// frames flushed to the registry's sink at simulated timestamps.
	Telemetry *obs.Registry
}

func (c *Config) fillDefaults() error {
	if c.Topo == nil {
		return fmt.Errorf("streamsim: Topo is required")
	}
	if err := c.Topo.Validate(); err != nil {
		return fmt.Errorf("streamsim: %w", err)
	}
	if c.Policy == 0 {
		return fmt.Errorf("streamsim: Policy is required")
	}
	if len(c.CPU) != c.Topo.NumPEs() {
		return fmt.Errorf("streamsim: CPU targets have %d entries, topology has %d PEs", len(c.CPU), c.Topo.NumPEs())
	}
	if c.Dt <= 0 {
		c.Dt = 0.010
	}
	if c.Duration <= 0 {
		c.Duration = 30
	}
	if c.Warmup <= 0 || c.Warmup >= c.Duration {
		c.Warmup = c.Duration / 5
	}
	if c.B0Frac <= 0 || c.B0Frac >= 1 {
		c.B0Frac = 0.5
	}
	if c.QWeight <= 0 {
		c.QWeight = 1
	}
	if c.RWeight <= 0 {
		c.RWeight = 8
	}
	if c.BurstTicks < 1 {
		c.BurstTicks = 40
	}
	if c.SampleEvery <= 0 {
		c.SampleEvery = 0.1
	}
	if c.CostAlpha <= 0 || c.CostAlpha > 1 {
		c.CostAlpha = 0.35
	}
	return nil
}

// item is one buffered SDO: the origin timestamp of its ancestral input
// SDO plus the processing depth already invested. trace/enq carry the
// observability sample (trace ID and buffer-entry time; trace 0 =
// unsampled).
type item struct {
	origin float64
	hops   int32
	trace  uint64
	enq    float64
}

// fifo is a slice-backed FIFO with head compaction.
type fifo struct {
	items []item
	head  int
}

func (q *fifo) len() int { return len(q.items) - q.head }

func (q *fifo) push(it item) { q.items = append(q.items, it) }

func (q *fifo) pop() item {
	it := q.items[q.head]
	q.head++
	if q.head > 256 && q.head*2 >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		q.items = q.items[:n]
		q.head = 0
	}
	return it
}

// peState is the runtime state of one PE.
type peState struct {
	id     sdo.PEID
	node   sdo.NodeID
	weight float64
	cap    int
	buf    fifo
	// pending holds SDOs staged for delivery at tick end (one hop per
	// tick).
	pending []item
	svc     *workload.Service
	bucket  *controller.TokenBucket
	fc      *control.FlowController
	// partial is CPU-seconds already invested in the head SDO.
	partial float64
	// costNow caches the per-SDO cost sampled at the current tick.
	costNow float64
	// overhead is the paper's b in h_j(c̄) = a·c̄ − b (SDOs/sec of fixed
	// rate tax): each tick the PE runs, setup costs consume
	// overhead·Δt·cost of budget before any SDO is processed.
	overhead float64
	// invCostSmooth is a harmonic EWMA of the per-SDO cost (an EWMA of
	// 1/costNow) used by the flow controller. Two reasons: the raw
	// two-state cost jumps 10× on a state flip, and advertising from the
	// instantaneous value whipsaws upstream senders; and a backlogged PE's
	// sustainable rate follows E[1/T] (the harmonic mean), not 1/E[T] —
	// an arithmetic smoother would understate capacity ~3× with the
	// paper's T0/T1 and permanently throttle the pipeline. The paper's
	// tier 2 uses "rate tracking mechanisms" for the same purpose.
	invCostSmooth float64
	blocked       bool
	// join marks a PE that consumes one SDO from each upstream per firing;
	// joinBufs then holds one queue per upstream (indexed by slot) and
	// pendSlots the per-slot staging areas, while buf/pending sit unused.
	join      bool
	joinBufs  []fifo
	pendSlots [][]item
	// slotOf maps an upstream PE to its input slot on a join PE.
	slotOf map[sdo.PEID]int
	// lastSlotVac is the per-slot counterpart of lastVacancy for join PEs.
	lastSlotVac []int
	// Telemetry handles (nil when Config.Telemetry is unset).
	gOcc, gTokens, gRmax *obs.Gauge
	// lastVacancy is this PE's buffer vacancy at the end of the previous
	// tick. Lock-Step senders block on this delayed value (plus the
	// instantaneous value as an overflow safety): a distributed blocking
	// sender learns of freed space one propagation delay late, exactly
	// like the ACES feedback path. Giving Lock-Step instantaneous remote
	// buffer knowledge would hand it an unrealizable advantage.
	lastVacancy int
	// down caches downstream IDs as int32 for the feedback board.
	down []int32
}

func (p *peState) vacancy() int {
	if p.join {
		v := p.cap
		for i := range p.joinBufs {
			if sv := p.slotVacancy(i); sv < v {
				v = sv
			}
		}
		return v
	}
	return p.cap - p.buf.len() - len(p.pending)
}

// slotVacancy is the free space of one join input queue.
func (p *peState) slotVacancy(slot int) int {
	return p.cap - p.joinBufs[slot].len() - len(p.pendSlots[slot])
}

// available counts immediately processible units: buffered SDOs for merge
// PEs, complete input tuples for join PEs.
func (p *peState) available() int {
	if !p.join {
		return p.buf.len()
	}
	n := p.joinBufs[0].len()
	for i := 1; i < len(p.joinBufs); i++ {
		if l := p.joinBufs[i].len(); l < n {
			n = l
		}
	}
	return n
}

// ctrlOcc is the congestion signal for the controller: the fullest queue
// (it overflows first).
func (p *peState) ctrlOcc() int {
	if !p.join {
		return p.buf.len()
	}
	n := 0
	for i := range p.joinBufs {
		if l := p.joinBufs[i].len(); l > n {
			n = l
		}
	}
	return n
}

// consume removes one processible unit and returns the item carrying
// latency/waste accounting: for joins, the origin of the OLDEST component
// (end-to-end latency reflects the slowest-arriving input) and the deepest
// hop count. A join's output inherits the first sampled component's trace
// (one trace continues through the join; siblings end silently rather
// than double-counting the tuple).
func (p *peState) consume() item {
	if !p.join {
		return p.buf.pop()
	}
	out := item{origin: math.Inf(1)}
	for i := range p.joinBufs {
		it := p.joinBufs[i].pop()
		if it.origin < out.origin {
			out.origin = it.origin
		}
		if it.hops > out.hops {
			out.hops = it.hops
		}
		if out.trace == 0 && it.trace != 0 {
			out.trace = it.trace
			out.enq = it.enq
		}
	}
	return out
}

// admitLimit is the occupancy above which arrivals are refused: the full
// capacity normally, 80% of it under load shedding (the [19]-style
// threshold policy).
func (p *peState) admitLimit(shed bool) int {
	if shed {
		return p.cap * 8 / 10
	}
	return p.cap
}

// admits reports whether one more SDO may enter the buffer.
func (p *peState) admits(shed bool) bool {
	return p.buf.len()+len(p.pending) < p.admitLimit(shed)
}

// Engine runs one configured simulation.
type Engine struct {
	cfg   Config
	topo  *graph.Topology
	sim   *sim.Simulator
	pes   []*peState
	nodes [][]*peState
	fb    *controller.Feedback
	col   *metrics.Collector
	// windowWT accumulates weighted deliveries within the current
	// stability-sampling window.
	windowWT float64
	// delivered counts post-warmup egress SDOs per PE (per-branch
	// throughput for the Fig. 2 experiment).
	delivered []int64
	// scratch buffers reused across ticks (step() runs 100×/simulated
	// second × nodes; per-tick allocation would dominate the profile).
	// Each node owns a Planner; the allocation slice it returns aliases
	// that planner's scratch and stays valid until the node's next plan.
	scratchTicks  [][]controller.PETick
	scratchAllocs [][]float64
	planners      []controller.Planner
	// Network model state: per-node remaining egress budget this tick and
	// the transit ring buffer (slot per tick of delay).
	netBudget []float64
	netRing   [][]netItem
	tickNo    int
	netDrops  int64
	// retargets counts the tier-1 target sets StartRetarget installed.
	retargets int
	// Observability (nil when disabled).
	tracer *obs.Tracer
	reg    *obs.Registry
}

// netItem is an SDO in transit between nodes.
type netItem struct {
	it   item
	dst  sdo.PEID
	from sdo.PEID
}

// New builds an engine; the configuration is validated and defaulted.
func New(cfg Config) (*Engine, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	t := cfg.Topo
	e := &Engine{
		cfg:    cfg,
		topo:   t,
		sim:    sim.New(),
		fb:     controller.NewFeedback(),
		col:    metrics.NewCollector(cfg.Warmup),
		tracer: cfg.Tracer,
		reg:    cfg.Telemetry,
	}
	e.nodes = make([][]*peState, t.NumNodes)
	e.pes = make([]*peState, t.NumPEs())
	e.delivered = make([]int64, t.NumPEs())
	// PEs with equal buffer sizes share one LQR design.
	var designs control.DesignMemo
	for j := 0; j < t.NumPEs(); j++ {
		pe := &t.PEs[j]
		bufCap := t.BufferSize(sdo.PEID(j))
		ps := &peState{
			id:       sdo.PEID(j),
			node:     pe.Node,
			weight:   pe.Weight,
			cap:      bufCap,
			overhead: pe.Overhead,
			svc:      workload.NewService(pe.Service, sim.Substream(cfg.Seed, uint64(j)+1000)),
			bucket:   controller.NewTokenBucket(cfg.CPU[j], cfg.BurstTicks),
		}
		if pe.Join {
			ups := t.Up(sdo.PEID(j))
			ps.join = true
			ps.joinBufs = make([]fifo, len(ups))
			ps.pendSlots = make([][]item, len(ups))
			ps.slotOf = make(map[sdo.PEID]int, len(ups))
			for slot, u := range ups {
				ps.slotOf[u] = slot
			}
		}
		for _, d := range t.Down(sdo.PEID(j)) {
			ps.down = append(ps.down, int32(d))
		}
		if e.reg != nil {
			labels := obs.Labels{"pe": fmt.Sprint(j), "node": fmt.Sprint(pe.Node)}
			ps.gOcc = e.reg.Gauge("buffer_occupancy", labels)
			ps.gTokens = e.reg.Gauge("tokens", labels)
			ps.gRmax = e.reg.Gauge("rmax", labels)
		}
		if cfg.Policy.UsesFeedback() {
			b0 := cfg.B0Frac * float64(bufCap)
			gains, err := designs.Design(control.DesignConfig{
				Delay:     2,
				QWeight:   cfg.QWeight,
				RWeight:   cfg.RWeight,
				Smoothing: 1,
				B0:        b0,
			})
			if err != nil {
				return nil, fmt.Errorf("streamsim: PE %d gain design: %w", j, err)
			}
			fc, err := control.NewFlowController(gains, 0)
			if err != nil {
				return nil, fmt.Errorf("streamsim: PE %d controller: %w", j, err)
			}
			ps.fc = fc
		}
		e.pes[j] = ps
		e.nodes[pe.Node] = append(e.nodes[pe.Node], ps)
	}
	if cfg.LinkCapacity > 0 {
		e.netBudget = make([]float64, t.NumNodes)
	}
	if cfg.NetDelay > 0 {
		slots := int(math.Round(cfg.NetDelay/cfg.Dt)) + 1
		e.netRing = make([][]netItem, slots)
	}
	// Sources: continuous-time arrival processes on the event kernel.
	for si, src := range t.Sources {
		proc, err := src.Burst.Build(src.Rate, sim.Substream(cfg.Seed, uint64(si)+5000))
		if err != nil {
			return nil, fmt.Errorf("streamsim: source %d: %w", si, err)
		}
		target := e.pes[src.Target]
		shed := cfg.Policy == policy.LoadShed
		var arrive func()
		arrive = func() {
			now := e.sim.Now()
			it := item{origin: now}
			if tr := e.tracer; tr != nil {
				if id := tr.SampleIngress(); id != 0 {
					it.trace = id
					it.enq = now
				}
			}
			if target.admits(shed) {
				target.buf.push(it)
			} else {
				e.col.InputDrop(now)
				ev := obs.EventDrop
				if shed {
					ev = obs.EventShed
				}
				e.traceDrop(it, target, now, ev)
			}
			e.sim.After(proc.NextInterval(), arrive)
		}
		e.sim.After(proc.NextInterval(), arrive)
	}
	return e, nil
}

// Run executes the simulation and returns the metrics report.
func (e *Engine) Run() metrics.Report {
	dt := e.cfg.Dt
	sampleTicks := int(math.Max(1, math.Round(e.cfg.SampleEvery/dt)))
	tick := 0
	stop := e.sim.Every(dt, func(now float64) {
		e.step(now)
		tick++
		if tick%sampleTicks == 0 {
			e.col.ThroughputSample(now, e.windowWT/(float64(sampleTicks)*dt))
			e.windowWT = 0
			for _, ps := range e.pes {
				e.col.BufferSample(now, float64(ps.buf.len()))
				if ps.gOcc != nil {
					ps.gOcc.Set(float64(ps.ctrlOcc()))
					ps.gTokens.Set(ps.bucket.Level())
				}
			}
			if e.reg != nil {
				e.reg.Flush(now)
			}
		}
	})
	e.sim.RunUntil(e.cfg.Duration)
	stop()
	return e.col.Finalize(e.cfg.Duration)
}

// step advances one control tick at time now.
func (e *Engine) step(now float64) {
	pol := e.cfg.Policy
	dt := e.cfg.Dt
	e.tickNo++
	if e.netBudget != nil {
		for n := range e.netBudget {
			e.netBudget[n] = e.cfg.LinkCapacity * dt
		}
	}
	if e.netRing != nil {
		slot := e.tickNo % len(e.netRing)
		due := e.netRing[slot]
		e.netRing[slot] = due[:0]
		for _, ni := range due {
			e.deliverLocal(e.pes[ni.from], e.pes[ni.dst], ni.it, now)
		}
	}

	// Phase 1: per-PE snapshots (cost, blocked state) and per-node plans.
	if e.scratchTicks == nil {
		e.scratchTicks = make([][]controller.PETick, len(e.nodes))
		e.scratchAllocs = make([][]float64, len(e.nodes))
		e.planners = make([]controller.Planner, len(e.nodes))
	}
	allocs := e.scratchAllocs
	for n, peers := range e.nodes {
		// Re-size on mismatch: MovePE changes node populations mid-run.
		if len(e.scratchTicks[n]) != len(peers) {
			e.scratchTicks[n] = make([]controller.PETick, len(peers))
		}
		ticks := e.scratchTicks[n]
		for i, ps := range peers {
			ps.costNow = ps.svc.CostAt(now)
			if ps.invCostSmooth == 0 {
				ps.invCostSmooth = 1 / ps.svc.Params().EffectiveCost()
			}
			ps.invCostSmooth = e.cfg.CostAlpha/ps.costNow + (1-e.cfg.CostAlpha)*ps.invCostSmooth
			mult := ps.svc.Params().MeanMult
			occ := float64(ps.ctrlOcc())
			work := (float64(ps.available())*ps.costNow - ps.partial) / dt
			if work < 0 {
				work = 0
			}
			cap := math.Inf(1)
			switch pol {
			case policy.ACES, policy.ACESStrictCPU:
				bound := e.fb.OutputBound(ps.down)
				cap = controller.RateToCPU(bound, ps.costNow, mult, dt)
			case policy.ACESMinFlow:
				bound := e.fb.MinBound(ps.down)
				cap = controller.RateToCPU(bound, ps.costNow, mult, dt)
			}
			ps.blocked = false
			if pol.Blocking() && len(ps.down) > 0 && ps.available() > 0 {
				for _, d := range ps.down {
					if e.lastVacancyFor(ps, e.pes[d]) < 1 || e.slotVacancyFor(ps, e.pes[d]) < 1 {
						ps.blocked = true
						break
					}
				}
			}
			ticks[i] = controller.PETick{
				Target:    e.cfg.CPU[ps.id],
				Tokens:    ps.bucket.Level(),
				Occupancy: occ,
				Work:      work,
				Cap:       cap,
				Blocked:   ps.blocked,
			}
		}
		planner := &e.planners[n]
		switch pol {
		case policy.ACES, policy.ACESMinFlow:
			allocs[n] = planner.PlanACES(ticks, 1)
		case policy.ACESStrictCPU:
			// Fold the feedback cap into work so strict enforcement still
			// honours Eq. 8.
			for i := range ticks {
				if ticks[i].Cap < ticks[i].Work {
					ticks[i].Work = ticks[i].Cap
				}
			}
			allocs[n] = planner.PlanStrict(ticks, 1)
		case policy.UDP, policy.LoadShed:
			// System 2 (and the load-shedding comparator) use traditional
			// strict/velocity enforcement (§II):
			// each PE gets at most its target each tick and unused slices
			// are lost — no banking. Token accumulation is an ACES
			// mechanism, not a baseline one.
			allocs[n] = planner.PlanStrict(ticks, 1)
		default:
			// System 3 (Lock-Step): targets enforced per tick; only the
			// slices of sleeping (blocked) PEs are redistributed. No
			// banking either.
			allocs[n] = planner.PlanLockStep(ticks, 1)
		}
	}

	// Phase 2: processing against the granted budgets.
	for n, peers := range e.nodes {
		for i, ps := range peers {
			alloc := allocs[n][i]
			ps.bucket.Refill()
			ps.bucket.Spend(alloc)
			if alloc <= 0 || ps.blocked {
				continue
			}
			budget := alloc * dt
			if ps.overhead > 0 && ps.available() > 0 {
				// Eq. 6's b: per-invocation setup tax ("the overhead involved
				// in setting up the data structures of the PE, the overhead
				// in function calls etc." — footnote 3), charged once per
				// active tick so h(c) = c/T − b holds on average.
				budget -= ps.overhead * ps.costNow * dt
				if budget < 0 {
					budget = 0
				}
			}
			for budget > 0 && ps.available() > 0 {
				if pol.Blocking() {
					// Re-check: a co-located upstream peer may have filled a
					// shared downstream buffer earlier in this tick.
					full := false
					for _, d := range ps.down {
						if e.lastVacancyFor(ps, e.pes[d]) < 1 || e.slotVacancyFor(ps, e.pes[d]) < 1 {
							full = true
							break
						}
					}
					if full {
						ps.blocked = true
						break
					}
				}
				need := ps.costNow - ps.partial
				if budget < need {
					ps.partial += budget
					budget = 0
					break
				}
				budget -= need
				ps.partial = 0
				it := ps.consume()
				e.emit(ps, it, now)
			}
		}
	}

	// Phase 3: flush staged deliveries (one hop per tick) and record the
	// end-of-tick vacancy senders will see next tick.
	for _, ps := range e.pes {
		if ps.join {
			if ps.lastSlotVac == nil {
				ps.lastSlotVac = make([]int, len(ps.joinBufs))
			}
			for slot := range ps.pendSlots {
				for _, it := range ps.pendSlots[slot] {
					ps.joinBufs[slot].push(it)
				}
				ps.pendSlots[slot] = ps.pendSlots[slot][:0]
				ps.lastSlotVac[slot] = ps.slotVacancy(slot)
			}
		} else {
			for _, it := range ps.pending {
				ps.buf.push(it)
			}
			ps.pending = ps.pending[:0]
		}
		ps.lastVacancy = ps.vacancy()
	}

	// Phase 4: flow-control advertisements for the next tick.
	if pol.UsesFeedback() {
		for _, ps := range e.pes {
			// ρ_j(n): the PE's sustainable drain rate in SDOs per tick. The
			// base is the tier-1 entitlement c̄; banked token-bucket surplus
			// is folded in over a short horizon so a PE that was throttled
			// (and accumulated entitlement) advertises the burst capacity it
			// genuinely has — without this, the [·]⁺ asymmetry of Eq. 7
			// makes advertisements systematically undershoot and the
			// pipeline admits less than its long-term capacity.
			cpuRate := e.cfg.CPU[ps.id]
			if surplus := ps.bucket.Level() - cpuRate; surplus > 0 {
				cpuRate += surplus / 5
			}
			rho := cpuRate * dt * ps.invCostSmooth
			// Physical clamp: free space plus one tick of drain.
			ps.fc.SetMaxRate(float64(ps.vacancy()) + rho)
			rmax := ps.fc.Update(rho, float64(ps.ctrlOcc()))
			if ps.gRmax != nil {
				ps.gRmax.Set(rmax)
			}
			e.fb.Publish(int32(ps.id), rmax)
		}
	}
}

// slotVacancyFor returns the free space the sender sees at dst: the whole
// buffer for merge PEs, the sender's own input slot for join PEs.
func (e *Engine) slotVacancyFor(sender, dst *peState) int {
	if dst.join {
		return dst.slotVacancy(dst.slotOf[sender.id])
	}
	return dst.vacancy()
}

// lastVacancyFor is the one-tick-delayed vacancy a blocking sender sees at
// dst, per slot for join PEs (a sender must only block on ITS input slot,
// or a full sibling slot would wedge the join forever).
func (e *Engine) lastVacancyFor(sender, dst *peState) int {
	if dst.join {
		if dst.lastSlotVac == nil {
			return dst.cap
		}
		return dst.lastSlotVac[dst.slotOf[sender.id]]
	}
	return dst.lastVacancy
}

// traceSpan records one hop span for a sampled item (no-op when tracing
// is off or the item is unsampled). In the discrete-time model service
// begins and ends within the tick, so Dequeue and Done coincide at now.
func (e *Engine) traceSpan(it item, ps *peState, now float64, ev obs.Event) {
	if e.tracer == nil || it.trace == 0 {
		return
	}
	e.tracer.Record(obs.Span{
		Trace: it.trace, PE: int32(ps.id), Node: int32(ps.node), Hops: it.hops,
		Enqueue: it.enq, Dequeue: now, Done: now, Event: ev,
	})
}

// traceDrop ends a sampled item's trace with a terminal loss span.
func (e *Engine) traceDrop(it item, dst *peState, now float64, ev obs.Event) {
	if e.tracer == nil || it.trace == 0 {
		return
	}
	e.tracer.Record(obs.Span{
		Trace: it.trace, PE: int32(dst.id), Node: int32(dst.node), Hops: it.hops,
		Enqueue: it.enq, Done: now, Event: ev,
	})
}

// emit forwards the outputs produced by consuming one SDO.
func (e *Engine) emit(ps *peState, consumed item, now float64) {
	m := ps.svc.Multiplicity()
	if len(ps.down) == 0 {
		// Egress: every produced SDO is productive output.
		for k := 0; k < m; k++ {
			e.col.Egress(now, ps.weight, now-consumed.origin)
			if now >= e.col.Warmup() {
				e.windowWT += ps.weight
				e.delivered[ps.id]++
			}
		}
		e.traceSpan(consumed, ps, now, obs.EventEgress)
		return
	}
	e.traceSpan(consumed, ps, now, obs.EventProcessed)
	out := item{origin: consumed.origin, hops: consumed.hops + 1, trace: consumed.trace, enq: now}
	for k := 0; k < m; k++ {
		for _, d := range ps.down {
			dst := e.pes[d]
			if dst.node != ps.node {
				// Inter-node traffic: charge the sender's NIC budget and
				// route through the transit ring when a delay is modeled.
				if e.netBudget != nil {
					if e.netBudget[ps.node] < 1 {
						e.netDrops++
						e.col.InFlightDrop(now, int(out.hops))
						e.traceDrop(out, dst, now, obs.EventUplinkDrop)
						continue
					}
					e.netBudget[ps.node]--
				}
				if e.netRing != nil {
					slot := (e.tickNo + len(e.netRing) - 1) % len(e.netRing)
					e.netRing[slot] = append(e.netRing[slot], netItem{it: out, dst: sdo.PEID(d), from: ps.id})
					continue
				}
			}
			e.deliverLocal(ps, dst, out, now)
		}
	}
}

// deliverLocal stages an SDO into dst's input (per-slot for joins),
// applying admission semantics.
func (e *Engine) deliverLocal(ps, dst *peState, out item, now float64) {
	shed := e.cfg.Policy == policy.LoadShed
	ev := obs.EventDrop
	if shed {
		ev = obs.EventShed
	}
	if dst.join {
		slot := dst.slotOf[ps.id]
		limit := dst.cap
		if shed {
			limit = dst.cap * 8 / 10
		}
		if dst.joinBufs[slot].len()+len(dst.pendSlots[slot]) < limit {
			dst.pendSlots[slot] = append(dst.pendSlots[slot], out)
		} else {
			e.col.InFlightDrop(now, int(out.hops))
			e.traceDrop(out, dst, now, ev)
		}
		return
	}
	if dst.admits(shed) {
		dst.pending = append(dst.pending, out)
	} else {
		e.col.InFlightDrop(now, int(out.hops))
		e.traceDrop(out, dst, now, ev)
	}
}

// NetDrops returns SDOs lost to link-capacity exhaustion.
func (e *Engine) NetDrops() int64 { return e.netDrops }

// Sim exposes the underlying kernel (tests use it to co-schedule probes).
func (e *Engine) Sim() *sim.Simulator { return e.sim }

// DeliveredByPE returns post-warmup egress SDO counts per PE (zero for
// non-egress PEs).
func (e *Engine) DeliveredByPE() []int64 {
	out := make([]int64, len(e.delivered))
	copy(out, e.delivered)
	return out
}

// BufferLen returns PE j's current input-buffer occupancy (tests); for
// join PEs, the fullest input queue.
func (e *Engine) BufferLen(j sdo.PEID) int { return e.pes[j].ctrlOcc() }

// MovePE migrates PE j to another node mid-run — the §II "dynamic
// placement" operation tier 1 performs when it re-optimizes. The PE's
// buffered SDOs travel with it; its token bucket and controller state are
// preserved (the bucket holds entitlement against the new node from the
// next tick). Call from a callback scheduled on Sim().
func (e *Engine) MovePE(j sdo.PEID, to sdo.NodeID) error {
	if int(j) < 0 || int(j) >= len(e.pes) {
		return fmt.Errorf("streamsim: MovePE unknown PE %d", j)
	}
	if to < 0 || int(to) >= len(e.nodes) {
		return fmt.Errorf("streamsim: MovePE unknown node %d", to)
	}
	ps := e.pes[j]
	if ps.node == to {
		return nil
	}
	old := e.nodes[ps.node]
	for i, p := range old {
		if p == ps {
			e.nodes[ps.node] = append(old[:i], old[i+1:]...)
			break
		}
	}
	ps.node = to
	e.nodes[to] = append(e.nodes[to], ps)
	return nil
}

// StartRetarget schedules a periodic tier-1 re-solve on the simulation
// clock — the simulator analogue of the live runtime's adaptive loop.
// Every `every` simulated seconds, solve is called with the 1-based epoch
// and a copy of the current targets; a non-nil result is installed via
// SetTargets, nil keeps the incumbent. The solve runs in wall time while
// simulated time stands still, so even an expensive re-solve costs the
// simulated system nothing; pair it with a solver deadline to study what
// a bounded epoch budget would have produced. Call before Run; the
// returned stop cancels the schedule.
func (e *Engine) StartRetarget(every float64, solve func(epoch int, cpu []float64) []float64) (stop func(), err error) {
	if every <= 0 {
		return nil, fmt.Errorf("streamsim: StartRetarget period %g, want > 0", every)
	}
	if solve == nil {
		return nil, fmt.Errorf("streamsim: StartRetarget requires a solve callback")
	}
	return e.sim.Every(every, func(float64) {
		cur := make([]float64, len(e.cfg.CPU))
		copy(cur, e.cfg.CPU)
		next := solve(e.retargets+1, cur)
		if next == nil {
			return
		}
		if err := e.SetTargets(next); err == nil {
			e.retargets++
		}
	}), nil
}

// Retargets returns how many target sets StartRetarget has installed.
func (e *Engine) Retargets() int { return e.retargets }

// SetTargets replaces the tier-1 CPU targets mid-run: the paper's tier 1
// re-optimizes "periodically, to support changing workload and resource
// availability" (§I), and the tier-2 token buckets re-rate accordingly.
// Call from a callback scheduled on Sim(). The slice length must match the
// PE count.
func (e *Engine) SetTargets(cpu []float64) error {
	if len(cpu) != len(e.pes) {
		return fmt.Errorf("streamsim: SetTargets got %d entries, topology has %d PEs", len(cpu), len(e.pes))
	}
	copy(e.cfg.CPU, cpu)
	for j, ps := range e.pes {
		ps.bucket.SetRate(cpu[j])
	}
	return nil
}
