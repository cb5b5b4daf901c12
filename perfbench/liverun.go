package main

import (
	"fmt"
	"runtime/debug"
	"time"
)

// runLive runs as many rounds of one live workload as fit the run's
// seconds and turns them into metrics. In a traced run (-trace 1) every other round is traced: the
// span- and timer-based per-layer metrics come from the traced rounds,
// the counters from the untraced ones, and the difference between the two
// kinds is the tracing overhead. End-to-end metrics always come from
// untraced rounds.
func runLive(o options, p liveParams) (*result, error) {
	rounds := int(o.seconds/(2*livePhase.Seconds()) + 0.5)
	if rounds < 2 {
		rounds = 2
	}
	pool := newPayloadPool(p.payload, p.pool, o.seed)
	fmt.Printf("deployment: ingest(node0) -> route(node1) => sink-a, sink-b (node2); clusters A{0,1} B{2}, one loopback TCP link, batch 32, ACES, dt 10ms, B=%d\n", bufferSize)
	fmt.Printf("load: %d B payloads (%d distinct), steady %.0f SDO/s, overload %.0f SDO/s, %d rounds of %v + %v\n",
		p.payload, p.pool, p.steadyRate, p.overloadRate, rounds, livePhase, livePhase)

	rss := startRSS(5 * time.Millisecond)
	defer rss.close()
	var plain, traced []roundResult
	var peaks []float64
	for i := 0; i < rounds; i++ {
		isTraced := o.trace && i%2 == 1
		// Each round's resident-set peak starts from the heap the previous
		// rounds left returned to the OS, so it measures that round alone
		// rather than the run's high-water mark so far.
		debug.FreeOSMemory()
		rss.take()
		rr, err := liveRound(roundConfig{
			p: p, pool: pool, seed: o.seed*1000 + int64(i),
			steady: livePhase, overload: livePhase, traced: isTraced, sampleOcc: o.trace,
		})
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		if peak := rss.take(); !isTraced {
			peaks = append(peaks, peak)
		}

		fmt.Printf("round %d traced=%v setup %.1fms steady %d/%d injected, p50 %.2fms, goodput %.0f/s, failed %d\n",
			i, isTraced, ms(rr.setup), rr.steadyGen.injected, rr.steadyGen.offered,
			quantile(append([]float64(nil), rr.lat...), 0.5), rr.goodput, rr.failedSDOs)
		if isTraced {
			traced = append(traced, rr)
		} else {
			plain = append(plain, rr)
		}
	}

	res := &result{correct: true, metrics: map[string]float64{}}
	all := append(append([]roundResult(nil), plain...), traced...)
	res.checkLive(all)

	// Whole-pipeline metrics, from untraced rounds.
	var setups, goodputs, cpus, lat []float64
	for _, rr := range all {
		setups = append(setups, rr.setup.Seconds())
	}
	for _, rr := range plain {
		goodputs = append(goodputs, rr.goodput)
		cpus = append(cpus, cpuPerSDO(rr))
		lat = append(lat, rr.lat...)
	}
	res.set("setup_s", median(setups))
	res.set("goodput_sdo_s", median(goodputs))
	// Both sinks weigh 1, so the weighted rate equals goodput here.
	res.set("weighted_tput", median(goodputs))
	res.set("cpu_us_per_sdo", median(cpus))
	res.set("lat_p50_ms", quantile(lat, 0.5))
	res.set("lat_p99_ms", quantile(lat, 0.99))
	res.set("rss_peak_mb", median(peaks))
	res.notef("latency samples %d (steady deliveries, untraced rounds); highest percentile with >=10 beyond: %s", len(lat), tailLabel(len(lat)))
	res.notef("setup median of %d set-ups; goodput and cpu medians of %d rounds", len(setups), len(plain))

	res.liveCounters(plain, p)
	if len(traced) > 0 {
		res.liveTrace(traced, plain)
	}
	return res, nil
}

// cpuPerSDO is process CPU per delivered SDO in the steady phase, in µs.
func cpuPerSDO(rr roundResult) float64 {
	if rr.steadyDeliveries == 0 {
		return 0
	}
	return float64(rr.steadyCPU.total()) / 1e3 / float64(rr.steadyDeliveries)
}

// checkLive folds every round's checks into the verdict.
func (res *result) checkLive(rounds []roundResult) {
	for i, rr := range rounds {
		res.attempted += rr.steadyGen.injected
		res.failed += rr.failedSDOs
		if rr.duplicates > 0 || rr.corrupt > 0 {
			res.fail("round %d: %d duplicate and %d corrupt or stray deliveries", i, rr.duplicates, rr.corrupt)
		}
		if rr.unaccounted {
			res.fail("round %d: %d steady deliveries missing but only %d drops counted", i, rr.missing,
				rr.dropsSteady.input+rr.dropsSteady.inflight)
		}
		if rr.reconnects > 0 {
			res.fail("round %d: link reconnected %d times", i, rr.reconnects)
		}
	}
	// The generator must keep its schedule: a steady phase that lags
	// distorts latency, and an overload phase that lags offers less than
	// the run claims. Judged on run totals, so one stall at the end of a
	// short phase does not void the run.
	for _, ph := range []struct {
		name string
		max  float64
		get  func(roundResult) genStats
	}{
		{"steady", maxLagSteady, func(r roundResult) genStats { return r.steadyGen }},
		{"overload", maxLagOverload, func(r roundResult) genStats { return r.overGen }},
	} {
		var off, inj int64
		for _, rr := range rounds {
			off += ph.get(rr).offered
			inj += ph.get(rr).injected
		}
		if float64(inj) < (1-ph.max)*float64(off) {
			res.fail("INVALID run: %s generator fell behind, injected %d of %d offered", ph.name, inj, off)
		}
	}
}

// liveCounters sets the counter-based per-layer metrics from untraced
// rounds: drops, loss, generator, transport and Go runtime.
func (res *result) liveCounters(rounds []roundResult, p liveParams) {
	var (
		ds, do                                 dropCounts
		offS, injS, offO, injO                 int64
		late                                   []float64
		sent, dropped, batches, batched, recon int64
		overSec                                float64
		alloc                                  uint64
		deliveries                             int64
		gcCount                                uint32
		gcPause                                time.Duration
		cpu                                    cpuTimes
		attempted, failed                      int64
		outboxPeak                             = -1
	)
	for _, rr := range rounds {
		ds.input += rr.dropsSteady.input
		ds.inflight += rr.dropsSteady.inflight
		do.input += rr.dropsOver.input
		do.inflight += rr.dropsOver.inflight
		offS += rr.steadyGen.offered
		injS += rr.steadyGen.injected
		offO += rr.overGen.offered
		injO += rr.overGen.injected
		late = append(late, rr.steadyGen.late...)
		sent += rr.framesSent
		dropped += rr.framesDropped
		batches += rr.batches
		batched += rr.batched
		recon += rr.reconnects
		overSec += rr.overSeconds
		alloc += rr.steadyAlloc
		deliveries += rr.steadyDeliveries
		gcCount += rr.gcCount
		gcPause += rr.gcPause
		cpu.user += rr.steadyCPU.user
		cpu.sys += rr.steadyCPU.sys
		attempted += rr.steadyGen.injected
		failed += rr.failedSDOs
		outboxPeak = max(outboxPeak, rr.outboxPeak)
	}
	n := float64(len(rounds))
	res.set("spc.input_drops.steady", float64(ds.input))
	res.set("spc.inflight_drops.steady", float64(ds.inflight))
	res.set("spc.input_drops.overload", float64(do.input))
	res.set("spc.inflight_drops.overload", float64(do.inflight))
	if attempted > 0 {
		res.set("loss_frac", float64(failed)/float64(attempted))
	}
	res.set("gen.late_ms.p99", quantile(late, 0.99))
	res.set("gen.late_ms.max", quantile(late, 1))
	res.set("gen.offered.steady", float64(offS))
	res.set("gen.injected.steady", float64(injS))
	res.set("gen.offered.overload", float64(offO))
	res.set("gen.injected.overload", float64(injO))
	if batches > 0 {
		res.set("transport.batch_fill", float64(batched)/float64(batches))
	}
	res.set("transport.frames_sent", float64(sent)/n)
	res.set("transport.frames_dropped", float64(dropped)/n)
	res.set("transport.reconnects", float64(recon))
	if outboxPeak >= 0 {
		res.set("transport.outbox_peak.steady", float64(outboxPeak))
	}
	if overSec > 0 {
		res.set("transport.wire_mb_s", float64(sent)*float64(p.payload+wireHeader)/overSec/1e6)
	}
	if deliveries > 0 {
		res.set("go.alloc_b_per_sdo", float64(alloc)/float64(deliveries))
	}
	res.set("go.gc_count", float64(gcCount)/n)
	res.set("go.gc_pause_ms", ms(gcPause)/n)
	if cpu.total() > 0 {
		res.set("proc.sys_frac", float64(cpu.sys)/float64(cpu.total()))
	}
	for i, pe := range livePEs {
		var occ []float64
		for _, rr := range rounds {
			if rr.occ != nil {
				occ = append(occ, rr.occ[i]...)
			}
		}
		if len(occ) == 0 {
			continue
		}
		var s float64
		for _, v := range occ {
			s += v
		}
		res.set("spc.occ_mean."+pe, s/float64(len(occ)))
		res.set("spc.occ_max."+pe, quantile(occ, 1))
	}
	res.notef("counters are per round (mean of %d) except drops, reconnects and generator counts, which are totals, and the outbox peak, which is the deepest of any round", len(rounds))
}

// liveTrace sets the span- and timer-based per-layer metrics from the
// traced rounds, the layer-sum residual, and the tracing overhead
// against the untraced rounds of the same run.
func (res *result) liveTrace(traced, plain []roundResult) {
	pool := func(get func(roundResult) []float64) []float64 {
		var out []float64
		for _, rr := range traced {
			out = append(out, get(rr)...)
		}
		return out
	}
	pct := func(name string, xs []float64) {
		res.set(name+".p50", quantile(xs, 0.5))
		res.set(name+".p99", quantile(xs, 0.99))
	}
	pct("spc.inject_ns", pool(func(r roundResult) []float64 { return r.injectNs }))
	pct("spc.emit_local_ns", pool(func(r roundResult) []float64 { return r.emitLocal }))
	pct("spc.emit_remote_ns", pool(func(r roundResult) []float64 { return r.emitRemote }))
	for _, pe := range livePEs {
		pct("spc.queue_wait_ms."+pe, pool(func(r roundResult) []float64 { return r.queueWait[pe] }))
		pct("spc.service_ms."+pe, pool(func(r roundResult) []float64 { return r.service[pe] }))
	}
	ingress := pool(func(r roundResult) []float64 { return r.hopIngress })
	local := pool(func(r roundResult) []float64 { return r.hopLocal })
	remote := pool(func(r roundResult) []float64 { return r.hopRemote })
	egress := pool(func(r roundResult) []float64 { return r.hopEgress })
	pct("spc.hop_ms.ingress", ingress)
	pct("spc.hop_ms.local", local)
	pct("spc.hop_ms.remote", remote)
	res.set("spc.hop_ms.egress.p50", quantile(egress, 0.5))
	// The hops chain due → ingest → route → sink → delivery, so their
	// p50s should sum to roughly the traced end-to-end p50; the residual
	// is how far the per-hop breakdown misses it.
	e2e := quantile(pool(func(r roundResult) []float64 { return r.lat }), 0.5)
	sum := quantile(ingress, 0.5) + quantile(local, 0.5) + quantile(remote, 0.5) + quantile(egress, 0.5)
	if e2e > 0 {
		res.set("spc.layer_sum_residual_pct", 100*(e2e-sum)/e2e)
	}
	res.notef("traced p50 %.3fms vs sum of hop p50s %.3fms (ingress %.3f + local %.3f + remote %.3f + egress %.3f)",
		e2e, sum, quantile(ingress, 0.5), quantile(local, 0.5), quantile(remote, 0.5), quantile(egress, 0.5))
	var tc, pc, tg, pg []float64
	for _, rr := range traced {
		tc = append(tc, cpuPerSDO(rr))
		tg = append(tg, rr.goodput)
	}
	for _, rr := range plain {
		pc = append(pc, cpuPerSDO(rr))
		pg = append(pg, rr.goodput)
	}
	if m := median(pc); m > 0 {
		res.set("obs.trace_overhead_pct", 100*(median(tc)/m-1))
	}
	if m := median(pg); m > 0 {
		res.set("obs.trace_goodput_loss_pct", 100*(1-median(tg)/m))
	}
	res.notef("traced rounds: cpu %.3f us/SDO, goodput %.0f/s; untraced: cpu %.3f us/SDO, goodput %.0f/s",
		median(tc), median(tg), median(pc), median(pg))
}
