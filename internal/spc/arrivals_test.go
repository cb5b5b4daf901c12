package spc

import (
	"math"
	"testing"
	"time"

	"aces/internal/policy"
	"aces/internal/sdo"
)

// TestSchedulerTickGrantsArrivals drives schedulerTick by hand on a
// single egress PE (no downstream bound, ample tokens, so the grant is
// exactly its work term). Between ticks k SDOs are admitted and k served,
// holding a backlog of b: the grant must cover the backlog plus the k
// arrivals the measured rate predicts for the coming period, not the
// backlog alone. A PE started after the last grant must then serve an SDO
// admitted after that grant without waiting for another tick.
func TestSchedulerTickGrantsArrivals(t *testing.T) {
	const (
		cost  = 0.001 // virtual CPU-seconds per SDO
		b, k  = 4, 3  // standing backlog, admissions per tick
		ticks = 40    // enough for the arrival EWMA to converge
	)
	topo := buildChain(t, 1, 1, cost, 1)
	c, err := NewCluster(Config{Topo: topo, Policy: policy.ACES, CPU: []float64{1}, TimeScale: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.cancel()
	pr := c.pes[0]
	peers := c.nodes[0]
	scr := newSchedScratch(len(peers))
	dt := c.cfg.Dt
	now := c.clock.Now()
	var seq uint64
	admit := func() {
		if !pr.buf.TryPush(sdo.SDO{Stream: 1, Seq: seq, Bytes: 1}) {
			t.Fatalf("admit %d refused", seq)
		}
		seq++
	}
	for i := 0; i < b; i++ {
		admit()
	}
	var granted float64
	for tick := 0; tick < ticks; tick++ {
		for i := 0; i < k; i++ {
			admit()
			if _, ok := pr.buf.TryPop(); !ok {
				t.Fatal("serve: buffer empty")
			}
		}
		// The PE spent last tick's grant serving those SDOs.
		pr.mu.Lock()
		pr.budget = 0
		pr.mu.Unlock()
		now += dt
		c.schedulerTick(peers, scr, now, dt)
		pr.mu.Lock()
		granted = pr.budget
		pr.mu.Unlock()
	}
	if want := (b + k) * cost; math.Abs(granted-want) > 1e-9 {
		t.Fatalf("grant = %.6g CPU-s, want backlog plus predicted arrivals %.6g (backlog alone is %.6g)",
			granted, want, b*cost)
	}

	// Start only the PE goroutine: no scheduler runs, so no further grant
	// can arrive. It serves the backlog, then an SDO admitted after the
	// grant must be served from the arrival share of that same grant.
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.runPE(pr)
	}()
	admit()
	deadline := time.Now().Add(5 * time.Second)
	for pr.buf.Len() > 0 || pr.held.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d SDOs still waiting with no tick: the grant did not cover arrivals after it", pr.occupancy())
		}
		time.Sleep(time.Millisecond)
	}
	c.cancel()
	c.wg.Wait()
}
