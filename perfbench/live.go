package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"aces/internal/graph"
	"aces/internal/obs"
	"aces/internal/policy"
	"aces/internal/sdo"
	"aces/internal/spc"
	"aces/internal/transport"
	"aces/internal/workload"
)

// liveParams sizes one live workload.
type liveParams struct {
	payload      int     // bytes per SDO
	pool         int     // distinct payloads the generator cycles through
	steadyRate   float64 // ingress SDO/s in the steady phase
	overloadRate float64 // ingress SDO/s in the overload phase
}

// live-small's steady rate leaves the 1024-frame outbox room for the
// per-tick bursts route emits: at 20k SDO/s its peak depth reached 997 in
// an ordinary round and overflowed in about one round in sixty (see
// README.md), so steady loss depended on how busy the host was.
var (
	liveSmall = liveParams{payload: 24, pool: 4096, steadyRate: 5000, overloadRate: 300000}
	liveBulk  = liveParams{payload: 16 << 10, pool: 256, steadyRate: 10000, overloadRate: 300000}
)

// The live deployment: ingest (node 0) → route (node 1) → sink-a and
// sink-b (both on node 2). Cluster A hosts nodes 0–1, cluster B node 2.
const (
	peIngest sdo.PEID = 0
	peRoute  sdo.PEID = 1
	peSinkA  sdo.PEID = 2
	peSinkB  sdo.PEID = 3

	bufferSize = 1024
	// Steady SDOs carry Seq 0.., overload SDOs overloadBase.., and the
	// set-up probes probeBase.., so a sink can tell the three apart.
	overloadBase uint64 = 1 << 40
	probeBase    uint64 = 1 << 50
	// wireHeader is the transport's per-SDO header on a routed frame.
	wireHeader = 44
	// livePhase is the length of each round's steady and overload phase;
	// a run makes as many set-up → steady → overload → teardown rounds as
	// fit its seconds, and every metric is a median or pool over them.
	livePhase = 500 * time.Millisecond
	// liveWarm opens each phase: steady SDOs due in it are checked but
	// not timed, and the overload goodput window starts after it.
	liveWarm = 100 * time.Millisecond
	// maxLagSteady and maxLagOverload are the shares of a phase's offered
	// SDOs the generator may leave uninjected before the run is invalid.
	maxLagSteady   = 0.01
	maxLagOverload = 0.05
)

var liveCPU = []float64{1, 1, 0.5, 0.5}

// liveTopology builds the live DAG. The processors are the benchmark's
// own and carry no cost model, so the declared service model only has to
// validate: the scheduler budgets measured CPU. The negligible source on
// ingest satisfies validation; the generator drives ingest directly.
func liveTopology() (*graph.Topology, error) {
	t := graph.New(3, bufferSize)
	svc := workload.ServiceParams{T0: 5e-6, T1: 5e-6, LambdaS: 1, DwellUnit: 0.01, MeanMult: 1}
	for _, pe := range []graph.PE{
		{Name: "ingest", Node: 0, Service: svc},
		{Name: "route", Node: 1, Service: svc},
		{Name: "sink-a", Node: 2, Service: svc, Weight: 1},
		{Name: "sink-b", Node: 2, Service: svc, Weight: 1},
	} {
		t.AddPE(pe)
	}
	for _, e := range [][2]sdo.PEID{{peIngest, peRoute}, {peRoute, peSinkA}, {peRoute, peSinkB}} {
		if err := t.Connect(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	if err := t.AddSource(graph.Source{Stream: 1, Target: peIngest, Rate: 1e-6,
		Burst: graph.BurstSpec{Kind: graph.BurstDeterministic}}); err != nil {
		return nil, err
	}
	return t, nil
}

// payloadPool is the generator's seeded payload content: SDO seq carries
// pool[index(seq)], so a sink can check every payload it receives.
type payloadPool struct {
	size int
	salt uint64
	data [][]byte
}

func newPayloadPool(size, n int, seed int64) *payloadPool {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed_9a71))
	p := &payloadPool{size: size, salt: rng.Uint64(), data: make([][]byte, n)}
	for i := range p.data {
		b := make([]byte, size)
		rng.Read(b)
		if size >= 4 {
			binary.LittleEndian.PutUint32(b, uint32(i)) // distinct even if the bytes collide
		}
		p.data[i] = b
	}
	return p
}

func (p *payloadPool) forSeq(seq uint64) []byte {
	return p.data[mix64(seq^p.salt)%uint64(len(p.data))]
}

func (p *payloadPool) intact(s sdo.SDO) bool {
	b, ok := s.Payload.([]byte)
	return ok && s.Bytes == p.size && bytes.Equal(b, p.forSeq(s.Seq))
}

func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ x>>31
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// forwarder is the ingest and route processor: it forwards each SDO
// unchanged except for its stream. In a traced round it records how old
// each steady SDO is on arrival (time since its due time) and how long
// the emit call takes.
type forwarder struct {
	out    sdo.StreamID
	age    []float32 // ms per steady seq; nil when untraced
	emitNs []float64
}

func (f *forwarder) process(in sdo.SDO, emit func(sdo.SDO)) error {
	out := in
	out.Stream = f.out
	if in.Seq >= uint64(len(f.age)) {
		emit(out)
		return nil
	}
	t0 := time.Now()
	f.age[in.Seq] = float32(ms(t0.Sub(in.Origin)))
	emit(out)
	f.emitNs = append(f.emitNs, float64(time.Since(t0)))
	return nil
}

// Per-seq delivery status bits kept by a sink.
const (
	stDelivered uint8 = 1 << iota
	stDuplicate
	stCorrupt
)

// sink is the egress processor. It checks every SDO against the
// generator's seeded content, records each steady SDO's status and
// latency from due time, and forwards it so the cluster counts the
// delivery. Fields without atomics are owned by the PE goroutine and read
// after the cluster stops.
type sink struct {
	out      sdo.StreamID
	payloads *payloadPool
	steady   []uint8   // status per steady seq
	over     []uint64  // bitset of overload seqs seen
	lat      []float32 // steady due→egress latency per seq, ms
	age      []float32 // traced: age on arrival per steady seq, ms
	egress   []float32 // traced: arrival → delivery per steady seq, ms

	overDup, overCorrupt, stray int64
	nSteady, nOver, nProbe      atomic.Int64
}

func newSink(out sdo.StreamID, p *payloadPool, maxSteady, maxOver int, traced bool) *sink {
	k := &sink{out: out, payloads: p, steady: make([]uint8, maxSteady), over: make([]uint64, maxOver/64+1)}
	k.lat = make([]float32, maxSteady)
	if traced {
		k.age = make([]float32, maxSteady)
		k.egress = make([]float32, maxSteady)
	}
	return k
}

func (k *sink) process(in sdo.SDO, emit func(sdo.SDO)) error {
	out := in
	out.Stream = k.out
	switch {
	case in.Seq >= probeBase:
		emit(out)
		k.nProbe.Add(1)
	case in.Seq >= overloadBase:
		i := in.Seq - overloadBase
		switch {
		case i >= uint64(len(k.over))*64:
			k.stray++
		case k.over[i/64]&(1<<(i%64)) != 0:
			k.overDup++
		default:
			k.over[i/64] |= 1 << (i % 64)
		}
		if !k.payloads.intact(in) {
			k.overCorrupt++
		}
		emit(out)
		k.nOver.Add(1)
	case in.Seq < uint64(len(k.steady)):
		var arrive float64
		if k.age != nil {
			arrive = ms(time.Since(in.Origin))
		}
		st := k.steady[in.Seq]
		if st&stDelivered != 0 {
			st |= stDuplicate
		}
		st |= stDelivered
		if !k.payloads.intact(in) {
			st |= stCorrupt
		}
		k.steady[in.Seq] = st
		emit(out)
		l := ms(time.Since(in.Origin))
		k.lat[in.Seq] = float32(l)
		if k.age != nil {
			k.age[in.Seq] = float32(arrive)
			k.egress[in.Seq] = float32(l - arrive)
		}
		k.nSteady.Add(1)
	default:
		k.stray++
		emit(out)
	}
	return nil
}

// genStats is what the open-loop generator did in one phase.
type genStats struct {
	offered, injected int64
	// warm is the number of SDOs due in the phase's warm-up, which are
	// checked but excluded from latency and cost metrics.
	warm     int64
	late     []float64 // ms behind schedule per injected SDO (steady only)
	injectNs []float64 // traced: InjectSDO call durations
}

// generator drives ingest open loop on a seeded Poisson schedule.
type generator struct {
	c    *spc.Cluster
	pool *payloadPool
	rng  *rand.Rand
	tr   *obs.Tracer // traced rounds sample and time every SDO
}

// phase offers SDOs at rate from start for dur: each is stamped with its
// due time and injected no earlier. A generator running behind injects
// late (the lateness counts toward latency); SDOs still uninjected when
// the phase ends are offered but not injected, so a generator that cannot
// keep up shows as a gap between the two counts instead of a silently
// smaller offer. Only the steady phase records lateness and call timings.
// onWarm, if set, runs once before the first SDO due after the warm-up.
func (g *generator) phase(rate float64, start time.Time, dur, warm time.Duration, seqBase uint64,
	maxN int64, steady bool, onWarm func()) genStats {
	end, measureFrom := start.Add(dur), start.Add(warm)
	due := start
	var st genStats
	for i := int64(0); ; i++ {
		due = due.Add(time.Duration(g.rng.ExpFloat64() / rate * float64(time.Second)))
		if !due.Before(end) {
			return st
		}
		st.offered++
		if due.Before(measureFrom) {
			st.warm++
		} else if onWarm != nil {
			onWarm()
			onWarm = nil
		}
		now := time.Now()
		if i >= maxN || now.After(end) {
			continue
		}
		if d := due.Sub(now); d > 0 {
			time.Sleep(d)
			now = time.Now()
		}
		seq := seqBase + uint64(i)
		s := sdo.SDO{Stream: 1, Seq: seq, Origin: due, Bytes: g.pool.size, Payload: g.pool.forSeq(seq)}
		if g.tr != nil {
			s.Trace = g.tr.SampleIngress()
		}
		if steady {
			st.late = append(st.late, ms(now.Sub(due)))
		}
		if g.tr != nil && steady {
			t0 := time.Now()
			g.c.InjectSDO(peIngest, s)
			st.injectNs = append(st.injectNs, float64(time.Since(t0)))
		} else {
			g.c.InjectSDO(peIngest, s)
		}
		st.injected++
	}
}

// roundConfig is one live round.
type roundConfig struct {
	p                liveParams
	pool             *payloadPool
	seed             int64
	steady, overload time.Duration
	traced           bool // tracer, hop ages and call timers on
	sampleOcc        bool // sample outbox depth in steady and buffer occupancy in overload
	// wrapRoute, when set, wraps the route processor (tests inject faults).
	wrapRoute func(spc.FuncProcessor) spc.FuncProcessor
}

// dropCounts are the two clusters' summed drop counters.
type dropCounts struct{ input, inflight int64 }

func clusterDrops(a, b *spc.Cluster) dropCounts {
	ra, rb := a.Report(a.Now()), b.Report(b.Now())
	return dropCounts{ra.InputDrops + rb.InputDrops, ra.InFlightDrops + rb.InFlightDrops}
}

func (d dropCounts) sub(o dropCounts) dropCounts {
	return dropCounts{d.input - o.input, d.inflight - o.inflight}
}

// roundResult is everything one round measured.
type roundResult struct {
	setup              time.Duration
	steadyGen, overGen genStats
	lat                []float64 // steady due→egress, ms, both sinks
	steadyCPU          cpuTimes
	steadyDeliveries   int64
	steadyAlloc        uint64
	gcCount            uint32
	gcPause            time.Duration
	goodput            float64 // overload deliveries per wall second, both sinks
	dropsSteady        dropCounts
	dropsOver          dropCounts

	// Correctness.
	failedSDOs, missing, duplicates, corrupt int64
	unaccounted                              bool

	// Transport, over the overload phase (reconnects over the round).
	framesSent, framesDropped, batches, batched int64
	reconnects                                  int64
	overSeconds                                 float64
	outboxPeak                                  int // A's outbox depth, steady and drain; -1 when not sampled

	// Traced rounds only.
	queueWait, service                         map[string][]float64 // ms per PE
	hopIngress, hopLocal, hopRemote, hopEgress []float64
	emitLocal, emitRemote, injectNs            []float64
	occ                                        [][]float64 // per PE, overload samples
}

// deployment is the two clusters and the link between them.
type deployment struct {
	lis          *transport.Listener
	linkA, linkB *spc.ResilientLink
	a, b         *spc.Cluster
	serveWG      sync.WaitGroup
	closeOnce    sync.Once
	closeErr     error
}

// teardownTimeout bounds shutdown: a hang here is a program defect and
// fails the run loudly instead of stalling it.
const teardownTimeout = 10 * time.Second

// close stops the clusters, then closes the listener before the links —
// a link's accept-side manager may be blocked in Accept — and waits for
// the serve loops. Later calls return the first call's result.
func (d *deployment) close() error {
	d.closeOnce.Do(func() { d.closeErr = d.teardown() })
	return d.closeErr
}

func (d *deployment) teardown() error {
	done := make(chan struct{})
	go func() {
		if d.a != nil {
			d.a.Stop()
		}
		if d.b != nil {
			d.b.Stop()
		}
		d.lis.Close()
		d.linkA.Close()
		d.linkB.Close()
		d.serveWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-time.After(teardownTimeout):
		return fmt.Errorf("live teardown did not finish within %v", teardownTimeout)
	}
}

// liveRound runs one set-up → steady → drain → overload → teardown round.
func liveRound(cfg roundConfig) (rr roundResult, err error) {
	maxSteady := int(cfg.p.steadyRate*cfg.steady.Seconds()*1.2) + 1000
	maxOver := int(cfg.p.overloadRate*cfg.overload.Seconds()*1.2) + 1000
	rng := rand.New(rand.NewSource(cfg.seed))

	t0 := time.Now()
	topo, err := liveTopology()
	if err != nil {
		return rr, err
	}
	ingest := &forwarder{out: 2}
	route := &forwarder{out: 3}
	sinkA := newSink(4, cfg.pool, maxSteady, maxOver, cfg.traced)
	sinkB := newSink(5, cfg.pool, maxSteady, maxOver, cfg.traced)
	var trA, trB *obs.Tracer
	if cfg.traced {
		ingest.age = make([]float32, maxSteady)
		route.age = make([]float32, maxSteady)
		ingest.emitNs = make([]float64, 0, maxSteady)
		route.emitNs = make([]float64, 0, maxSteady)
		// Two spans per SDO on each side; the steady phase must fit.
		trA = obs.NewTracer(1, 2*maxSteady+4096, cfg.seed*2+1)
		trB = obs.NewTracer(1, 2*maxSteady+4096, cfg.seed*2+2)
	}
	routeProc := spc.FuncProcessor(route.process)
	if cfg.wrapRoute != nil {
		routeProc = cfg.wrapRoute(routeProc)
	}

	d := &deployment{}
	d.lis, err = transport.Listen("127.0.0.1:0")
	if err != nil {
		return rr, err
	}
	// Node-mode uplink defaults: 1024-frame outbox, 1 s write deadline,
	// batches of up to 32 SDOs.
	opts := transport.ResilientOptions{QueueSize: 1024, WriteTimeout: time.Second, BatchMax: 32}
	addr := d.lis.Addr()
	d.linkA = spc.NewResilientLink(func() (*transport.Conn, error) { return transport.Dial(addr, time.Second) }, opts)
	d.linkB = spc.NewResilientLink(d.lis.Accept, opts)
	defer func() {
		if cerr := d.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	base := spc.Config{Topo: topo, Policy: policy.ACES, CPU: liveCPU, TimeScale: 1, Warmup: 1e-3, Seed: cfg.seed}
	ca := base
	ca.LocalNodes, ca.Uplink, ca.Tracer = []sdo.NodeID{0, 1}, d.linkA, trA
	ca.Processors = map[sdo.PEID]spc.Processor{peIngest: spc.FuncProcessor(ingest.process), peRoute: routeProc}
	if d.a, err = spc.NewCluster(ca); err != nil {
		return rr, err
	}
	cb := base
	cb.LocalNodes, cb.Uplink, cb.Tracer = []sdo.NodeID{2}, d.linkB, trB
	cb.Processors = map[sdo.PEID]spc.Processor{peSinkA: spc.FuncProcessor(sinkA.process), peSinkB: spc.FuncProcessor(sinkB.process)}
	if d.b, err = spc.NewCluster(cb); err != nil {
		return rr, err
	}
	d.serveWG.Add(2)
	go func() { defer d.serveWG.Done(); _ = d.linkA.Serve(d.a) }()
	go func() { defer d.serveWG.Done(); _ = d.linkB.Serve(d.b) }()
	if err = d.a.Start(); err != nil {
		return rr, err
	}
	if err = d.b.Start(); err != nil {
		return rr, err
	}
	// Set-up ends once a probe has crossed the link to both sinks: the
	// handshake is done and every PE has run.
	if err = probe(d.a, cfg.pool, sinkA, sinkB); err != nil {
		return rr, err
	}
	rr.setup = time.Since(t0)

	// Steady phase. Cost metrics start after the warm-up, when the
	// schedulers' measured-cost estimates have settled.
	gen := &generator{c: d.a, pool: cfg.pool, rng: rng, tr: trA}
	steadyDelivered := func() int64 { return sinkA.nSteady.Load() + sinkB.nSteady.Load() }
	mem0 := readMem()
	drops0 := clusterDrops(d.a, d.b)
	var memW memSnap
	var cpuW cpuTimes
	var delivW int64
	stopOutbox := func() int { return -1 }
	if cfg.sampleOcc {
		stopOutbox = sampleOutbox(d.linkA)
	}
	rr.steadyGen = gen.phase(cfg.p.steadyRate, time.Now(), cfg.steady, liveWarm, 0, int64(maxSteady), true, func() {
		memW, cpuW, delivW = readMem(), readCPU(), steadyDelivered()
	})
	drain(steadyDelivered, 2*rr.steadyGen.injected)
	rr.steadyCPU = readCPU().sub(cpuW)
	rr.steadyAlloc = readMem().totalAlloc - memW.totalAlloc
	rr.steadyDeliveries = steadyDelivered() - delivW
	drops1 := clusterDrops(d.a, d.b)
	rr.dropsSteady = drops1.sub(drops0)
	rr.outboxPeak = stopOutbox()
	var spansA, spansB []obs.Span
	if cfg.traced {
		spansA, spansB = trA.Snapshot(), trB.Snapshot()
	}

	// Overload phase.
	ls0 := d.linkA.LinkStats()
	start := time.Now()
	genDone := make(chan genStats, 1)
	go func() {
		genDone <- gen.phase(cfg.p.overloadRate, start, cfg.overload, liveWarm, overloadBase, int64(maxOver), false, nil)
	}()
	var occ [][]float64
	if cfg.sampleOcc {
		occ = make([][]float64, len(livePEs))
	}
	overDelivered := func() int64 { return sinkA.nOver.Load() + sinkB.nOver.Load() }
	var c0 int64
	var w0 time.Time
	tick := time.NewTicker(time.Millisecond)
sample:
	for {
		select {
		case rr.overGen = <-genDone:
			break sample
		case now := <-tick.C:
			if w0.IsZero() && now.Sub(start) >= liveWarm {
				c0, w0 = overDelivered(), time.Now()
			}
			if occ != nil {
				occ[0] = append(occ[0], float64(d.a.BufferLen(peIngest)))
				occ[1] = append(occ[1], float64(d.a.BufferLen(peRoute)))
				occ[2] = append(occ[2], float64(d.b.BufferLen(peSinkA)))
				occ[3] = append(occ[3], float64(d.b.BufferLen(peSinkB)))
			}
		}
	}
	tick.Stop()
	c1, w1 := overDelivered(), time.Now()
	if w0.IsZero() || !w1.After(w0) {
		return rr, errors.New("overload phase too short to measure goodput")
	}
	rr.goodput = float64(c1-c0) / w1.Sub(w0).Seconds()
	rr.overSeconds = w1.Sub(start).Seconds()
	rr.dropsOver = clusterDrops(d.a, d.b).sub(drops1)
	ls1 := d.linkA.LinkStats()
	rr.framesSent = ls1.FramesSent - ls0.FramesSent
	rr.framesDropped = ls1.FramesDropped - ls0.FramesDropped
	rr.batches = ls1.BatchesSent - ls0.BatchesSent
	rr.batched = ls1.BatchedFrames - ls0.BatchedFrames
	rr.reconnects = ls1.Reconnects + d.linkB.LinkStats().Reconnects
	mem2 := readMem()
	rr.gcCount = mem2.numGC - mem0.numGC
	rr.gcPause = time.Duration(mem2.pauseNs - mem0.pauseNs)

	// Stop before reading processor-owned state: Stop joins the PE
	// goroutines, which orders their writes before the reads below.
	if err = d.close(); err != nil {
		return rr, err
	}
	rr.occ = occ
	rr.checkSteady(sinkA, sinkB)
	rr.corrupt += sinkA.overCorrupt + sinkB.overCorrupt
	rr.duplicates += sinkA.overDup + sinkB.overDup
	rr.corrupt += sinkA.stray + sinkB.stray
	if cfg.traced {
		rr.collectTrace(spansA, spansB, ingest, route, sinkA, sinkB)
		rr.injectNs = rr.steadyGen.injectNs
	}
	return rr, nil
}

// sampleOutbox samples the link's outbox depth every millisecond until
// the returned function is called, which stops the sampler, waits for it
// and returns the deepest outbox seen. The outbox is where steady SDOs
// are lost first: route emits a tick's worth of frames at once.
func sampleOutbox(l *spc.ResilientLink) func() int {
	stop, done := make(chan struct{}), make(chan struct{})
	peak := 0
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				peak = max(peak, l.LinkStats().QueueLen)
			}
		}
	}()
	return func() int {
		close(stop)
		<-done
		return peak
	}
}

// probe injects one set-up SDO and waits until both sinks received it.
func probe(a *spc.Cluster, pool *payloadPool, sinks ...*sink) error {
	a.InjectSDO(peIngest, sdo.SDO{Stream: 1, Seq: probeBase, Origin: time.Now(), Bytes: pool.size, Payload: pool.forSeq(probeBase)})
	deadline := time.Now().Add(5 * time.Second)
	for {
		ok := true
		for _, k := range sinks {
			ok = ok && k.nProbe.Load() > 0
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("set-up probe did not reach both sinks within 5s")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// drain waits until count reaches want, or until it has not moved for
// 250 ms (lost SDOs never arrive), capped at 3 s.
func drain(count func() int64, want int64) {
	last, moved := count(), time.Now()
	for stop := time.Now().Add(3 * time.Second); time.Now().Before(stop); {
		n := count()
		if n >= want {
			return
		}
		if n != last {
			last, moved = n, time.Now()
		} else if time.Since(moved) > 250*time.Millisecond {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// checkSteady verifies that every injected steady SDO reached each sink
// exactly once with its seeded payload, and that the clusters' drop
// counters account for any that did not arrive.
func (rr *roundResult) checkSteady(a, b *sink) {
	n := rr.steadyGen.injected
	for seq := int64(0); seq < n; seq++ {
		bad := false
		for _, k := range []*sink{a, b} {
			st := k.steady[seq]
			if st&stDelivered == 0 {
				rr.missing++
				bad = true
			} else if seq >= rr.steadyGen.warm {
				rr.lat = append(rr.lat, float64(k.lat[seq]))
			}
			if st&stDuplicate != 0 {
				rr.duplicates++
				bad = true
			}
			if st&stCorrupt != 0 {
				rr.corrupt++
				bad = true
			}
		}
		if bad {
			rr.failedSDOs++
		}
	}
	// Seqs past the injected prefix must never arrive.
	for _, k := range []*sink{a, b} {
		for seq := n; seq < int64(len(k.steady)); seq++ {
			if k.steady[seq] != 0 {
				rr.corrupt++
			}
		}
	}
	// A drop before the fan-out loses the SDO at both sinks, so each
	// counted drop explains at most two missing deliveries.
	drops := rr.dropsSteady.input + rr.dropsSteady.inflight
	rr.unaccounted = rr.missing > 2*drops
}

// collectTrace turns a traced round's spans and processor stamps into
// per-layer samples.
func (rr *roundResult) collectTrace(spansA, spansB []obs.Span, ingest, route *forwarder, a, b *sink) {
	rr.queueWait = map[string][]float64{}
	rr.service = map[string][]float64{}
	for _, spans := range [][]obs.Span{spansA, spansB} {
		for _, s := range spans {
			if s.PE < 0 || int(s.PE) >= len(livePEs) || (s.Event != obs.EventProcessed && s.Event != obs.EventEgress) {
				continue
			}
			name := livePEs[s.PE]
			rr.queueWait[name] = append(rr.queueWait[name], 1e3*(s.Dequeue-s.Enqueue))
			rr.service[name] = append(rr.service[name], 1e3*(s.Done-s.Dequeue))
		}
	}
	// Hop ages: how much an SDO's age (time since due) grows between the
	// processors it passes. ingress = due → ingest, local = ingest → route
	// (same process), remote = route → sink (over TCP), egress = sink
	// arrival → delivery.
	for seq := rr.steadyGen.warm; seq < rr.steadyGen.injected; seq++ {
		ai, ar := ingest.age[seq], route.age[seq]
		if ai == 0 || ar == 0 {
			continue
		}
		rr.hopIngress = append(rr.hopIngress, float64(ai))
		rr.hopLocal = append(rr.hopLocal, float64(ar-ai))
		for _, k := range []*sink{a, b} {
			if k.age[seq] != 0 {
				rr.hopRemote = append(rr.hopRemote, float64(k.age[seq]-ar))
				rr.hopEgress = append(rr.hopEgress, float64(k.egress[seq]))
			}
		}
	}
	rr.emitLocal = ingest.emitNs
	rr.emitRemote = route.emitNs
}
