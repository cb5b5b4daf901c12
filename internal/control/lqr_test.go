package control

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"aces/internal/mat"
)

func TestDAREScalarClosedForm(t *testing.T) {
	// For the scalar integrator e(n+1) = e(n) + v(n) with cost q e² + r v²,
	// the DARE reduces to P² = q(P + r): P = (q + √(q² + 4qr))/2 and the
	// gain K = P/(P + r).
	for _, tc := range []struct{ q, r float64 }{{1, 1}, {1, 8}, {4, 1}, {0.25, 16}} {
		a := mat.FromRows([][]float64{{1}})
		b := mat.FromRows([][]float64{{1}})
		q := mat.FromRows([][]float64{{tc.q}})
		r := mat.FromRows([][]float64{{tc.r}})
		p, k, err := DARE(a, b, q, r)
		if err != nil {
			t.Fatalf("q=%g r=%g: %v", tc.q, tc.r, err)
		}
		wantP := (tc.q + math.Sqrt(tc.q*tc.q+4*tc.q*tc.r)) / 2
		wantK := wantP / (wantP + tc.r)
		if math.Abs(p.At(0, 0)-wantP) > 1e-8 {
			t.Errorf("q=%g r=%g: P = %g, want %g", tc.q, tc.r, p.At(0, 0), wantP)
		}
		if math.Abs(k.At(0, 0)-wantK) > 1e-8 {
			t.Errorf("q=%g r=%g: K = %g, want %g", tc.q, tc.r, k.At(0, 0), wantK)
		}
	}
}

func TestDAREShapeErrors(t *testing.T) {
	if _, _, err := DARE(mat.New(2, 3), mat.New(2, 1), mat.New(2, 2), mat.New(1, 1)); err == nil {
		t.Errorf("non-square A should error")
	}
	if _, _, err := DARE(mat.Identity(2), mat.New(3, 1), mat.New(2, 2), mat.New(1, 1)); err == nil {
		t.Errorf("mismatched B should error")
	}
}

func TestDesignValidation(t *testing.T) {
	bad := []DesignConfig{
		{Delay: 0, QWeight: 1, RWeight: 1},
		{Delay: 1, QWeight: 0, RWeight: 1},
		{Delay: 1, QWeight: 1, RWeight: -2},
		{Delay: 1, QWeight: 1, RWeight: 1, Smoothing: -1},
		{Delay: 1, QWeight: 1, RWeight: 1, B0: -5},
	}
	for i, cfg := range bad {
		if _, err := Design(cfg); err == nil {
			t.Errorf("config %d should fail validation", i)
		}
	}
}

func TestDesignProducesEq7Structure(t *testing.T) {
	g, err := Design(DesignConfig{Delay: 3, QWeight: 1, RWeight: 4, Smoothing: 2, B0: 25})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Lambda) != 3 {
		t.Errorf("λ taps = %d, want Smoothing+1 = 3", len(g.Lambda))
	}
	if len(g.Mu) != 2 {
		t.Errorf("μ taps = %d, want Delay−1 = 2", len(g.Mu))
	}
	if g.B0 != 25 {
		t.Errorf("B0 = %g", g.B0)
	}
	// Buffer feedback must be negative feedback: positive λ.
	var sumL float64
	for _, l := range g.Lambda {
		if l <= 0 {
			t.Errorf("λ tap %g should be positive", l)
		}
		sumL += l
	}
	if sumL > 1 {
		t.Errorf("total buffer gain %g > 1 would overreact to a one-SDO error", sumL)
	}
}

func TestDesignedGainsAreStable(t *testing.T) {
	for _, delay := range []int{1, 2, 3, 4, 5} {
		for _, smoothing := range []int{0, 1, 2} {
			g, err := Design(DesignConfig{Delay: delay, QWeight: 1, RWeight: 8, Smoothing: smoothing, B0: 25})
			if err != nil {
				t.Fatalf("delay=%d smoothing=%d: %v", delay, smoothing, err)
			}
			if rho := ClosedLoopRadius(g); rho >= 1 {
				t.Errorf("delay=%d smoothing=%d: closed-loop ρ = %g ≥ 1", delay, smoothing, rho)
			}
		}
	}
}

func TestClosedLoopRadiusDetectsInstability(t *testing.T) {
	// Over-aggressive hand-tuned gains with actuation delay destabilize:
	// λ₀ = 1.8 with delay 2 overshoots (classic delayed feedback).
	g := FlowGains{B0: 25, Lambda: []float64{1.8}, Mu: []float64{0}, Delay: 2}
	if rho := ClosedLoopRadius(g); rho < 1 {
		t.Errorf("expected instability, got ρ = %g", rho)
	}
	// Gentle gains are stable.
	g2 := FlowGains{B0: 25, Lambda: []float64{0.2}, Mu: []float64{0.1}, Delay: 2}
	if rho := ClosedLoopRadius(g2); rho >= 1 {
		t.Errorf("expected stability, got ρ = %g", rho)
	}
}

// Property: for any reasonable (QWeight, RWeight, Delay) the design is
// stable — the §V-C guarantee ("stability is guaranteed through the LQR
// equations").
func TestDesignStabilityProperty(t *testing.T) {
	f := func(qRaw, rRaw uint8, dRaw uint8) bool {
		q := 0.05 + float64(qRaw)/32 // (0.05, 8]
		r := 0.05 + float64(rRaw)/32
		d := 1 + int(dRaw)%5
		g, err := Design(DesignConfig{Delay: d, QWeight: q, RWeight: r, B0: 10})
		if err != nil {
			// Design may legitimately reject extreme smoothing configs, but
			// with Smoothing = 0 it must succeed.
			return false
		}
		return ClosedLoopRadius(g) < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Simulate the true delayed closed loop and verify the buffer converges to
// b0 from arbitrary starting points — the steady-state property of §V
// ("each PE reaches steady-state behavior from an arbitrary starting
// point" and "the steady-state input rate of a PE is equal to its
// processing rate").
func TestClosedLoopConvergenceFromArbitraryStart(t *testing.T) {
	for _, start := range []float64{0, 3, 25, 50, 200} {
		g, err := Design(DefaultDesign(25))
		if err != nil {
			t.Fatal(err)
		}
		fc, err := NewFlowController(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		const rho = 5.0 // processing rate, SDOs/tick
		buf := start
		// Actuation delay 2: the rate computed at tick n arrives at n+2.
		pipe := []float64{rho, rho}
		var lastR float64
		for n := 0; n < 400; n++ {
			arrivals := pipe[0]
			pipe = pipe[1:]
			buf += arrivals - rho
			if buf < 0 {
				buf = 0
			}
			lastR = fc.Update(rho, buf)
			pipe = append(pipe, lastR)
		}
		if math.Abs(buf-25) > 1.0 {
			t.Errorf("start=%g: buffer settled at %g, want 25 ± 1", start, buf)
		}
		if math.Abs(lastR-rho) > 0.1 {
			t.Errorf("start=%g: steady input rate %g, want ρ = %g", start, lastR, rho)
		}
	}
}

// The closed loop must also track a changing processing rate (the
// disturbance-rejection property the burstiness experiments rely on).
func TestClosedLoopTracksRateChange(t *testing.T) {
	g, err := Design(DefaultDesign(25))
	if err != nil {
		t.Fatal(err)
	}
	fc, err := NewFlowController(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := 25.0
	pipe := []float64{5, 5}
	rho := 5.0
	var lastR float64
	for n := 0; n < 600; n++ {
		if n == 200 {
			rho = 1.0 // PE entered its slow state: 5× cost
		}
		arrivals := pipe[0]
		pipe = pipe[1:]
		buf += arrivals - rho
		if buf < 0 {
			buf = 0
		}
		lastR = fc.Update(rho, buf)
		pipe = append(pipe, lastR)
	}
	if math.Abs(buf-25) > 1.5 {
		t.Errorf("buffer after rate change settled at %g, want 25", buf)
	}
	if math.Abs(lastR-1.0) > 0.1 {
		t.Errorf("advertised rate %g, want new ρ = 1", lastR)
	}
}

func TestFlowControllerClampsAtZero(t *testing.T) {
	g, _ := Design(DefaultDesign(5))
	fc, _ := NewFlowController(g, 0)
	// Hugely overfull buffer with tiny processing rate must clamp to 0,
	// never negative.
	r := fc.Update(0.1, 10000)
	if r != 0 {
		t.Errorf("r_max = %g, want 0 (the []⁺ clamp of Eq. 7)", r)
	}
}

func TestFlowControllerMaxRateClamp(t *testing.T) {
	g, _ := Design(DefaultDesign(25))
	fc, _ := NewFlowController(g, 3)
	// Empty buffer → controller wants to refill fast; clamp holds it at 3.
	r := fc.Update(5, 0)
	if r > 3 {
		t.Errorf("r_max = %g exceeds clamp 3", r)
	}
	fc.SetMaxRate(100)
	r = fc.Update(5, 0)
	if r <= 3 {
		t.Errorf("after raising clamp, r_max = %g should exceed 3", r)
	}
}

func TestFlowControllerReset(t *testing.T) {
	g, _ := Design(DesignConfig{Delay: 2, QWeight: 1, RWeight: 8, Smoothing: 1, B0: 10})
	fc, _ := NewFlowController(g, 0)
	for i := 0; i < 10; i++ {
		fc.Update(2, 40)
	}
	fc.Reset()
	// After reset with a buffer exactly at b0 and matched rates the output
	// must equal ρ exactly (no phantom history).
	if r := fc.Update(2, 10); math.Abs(r-2) > 1e-12 {
		t.Errorf("post-reset r_max = %g, want 2", r)
	}
}

func TestNewFlowControllerValidation(t *testing.T) {
	if _, err := NewFlowController(FlowGains{}, 0); err == nil {
		t.Errorf("empty gains should error")
	}
	if _, err := NewFlowController(FlowGains{B0: -1, Lambda: []float64{0.1}}, 0); err == nil {
		t.Errorf("negative b0 should error")
	}
}

func TestColdStartPrimingAvoidsPhantomHistory(t *testing.T) {
	// With smoothing taps, a cold start at a full buffer must not mix in
	// zero-error phantom history: the first Update must see the full error
	// in every tap.
	g := FlowGains{B0: 10, Lambda: []float64{0.1, 0.1}, Mu: nil, Delay: 1}
	fc, _ := NewFlowController(g, 0)
	r := fc.Update(5, 50) // error 40 in both taps → 5 − 0.2·40 = −3 → 0
	if r != 0 {
		t.Errorf("cold start r = %g, want 0 (full error in all taps)", r)
	}
}

// Property: across the whole sane design space, the closed loop settles
// from a large initial error within a bounded horizon and does not
// overshoot below zero occupancy by more than the controller can help
// (the []⁺ clamp in the plant prevents negative buffers; here we check the
// *linear* loop's overshoot stays bounded).
func TestDesignSettlingProperty(t *testing.T) {
	f := func(qRaw, rRaw, dRaw uint8) bool {
		q := 0.1 + float64(qRaw%40)/20 // 0.1 – 2.05
		r := 1 + float64(rRaw%32)/4    // 1 – 8.75
		d := 1 + int(dRaw)%4
		g, err := Design(DesignConfig{Delay: d, QWeight: q, RWeight: r, Smoothing: 1, B0: 25})
		if err != nil {
			return false
		}
		fc, err := NewFlowController(g, 0)
		if err != nil {
			return false
		}
		const rho = 5.0
		buf := 100.0 // 4× the target
		pipe := make([]float64, d)
		for i := range pipe {
			pipe[i] = rho
		}
		settled := -1
		minBuf := buf
		for n := 0; n < 1500; n++ {
			arrivals := pipe[0]
			copy(pipe, pipe[1:])
			buf += arrivals - rho
			if buf < 0 {
				buf = 0
			}
			if buf < minBuf {
				minBuf = buf
			}
			pipe[len(pipe)-1] = fc.Update(rho, buf)
			if settled < 0 && buf > 20 && buf < 30 {
				settled = n
			} else if buf <= 20 || buf >= 30 {
				settled = -1
			}
		}
		// Settled in-band by the end, within a generous horizon.
		if settled < 0 || settled > 1200 {
			t.Logf("q=%.2f r=%.2f d=%d: settled=%d", q, r, d, settled)
			return false
		}
		// Undershoot must not empty the buffer entirely from above target
		// (that would starve the PE — the §IV underflow concern).
		if minBuf < 1 {
			t.Logf("q=%.2f r=%.2f d=%d: minBuf=%.1f", q, r, d, minBuf)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// DesignMemo returns exactly Design's gains, solves each configuration
// once (repeat requests share the slices), and the controllers built from
// shared gains evolve independently without writing to them.
func TestDesignMemoSharesReadOnlyGains(t *testing.T) {
	var memo DesignMemo
	cfgA, cfgB := DefaultDesign(512), DefaultDesign(25)
	a1, err := memo.Design(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := Design(cfgA)
	if !reflect.DeepEqual(a1, want) {
		t.Fatalf("memoized gains %+v differ from Design's %+v", a1, want)
	}
	a2, _ := memo.Design(cfgA)
	if &a1.Lambda[0] != &a2.Lambda[0] || &a1.Mu[0] != &a2.Mu[0] {
		t.Fatal("a repeated configuration was designed again instead of shared")
	}
	b, _ := memo.Design(cfgB)
	if b.B0 != 25 || &b.Lambda[0] == &a1.Lambda[0] {
		t.Fatalf("a distinct configuration reused another's gains: %+v", b)
	}
	if _, err := memo.Design(DesignConfig{}); err == nil {
		t.Fatal("an invalid configuration designed without error")
	}

	f1, _ := NewFlowController(a1, 0)
	f2, _ := NewFlowController(a2, 0)
	for i := 0; i < 50; i++ {
		f1.Update(100, float64(900-10*i))
	}
	if !reflect.DeepEqual(a2, want) {
		t.Fatalf("running one controller changed the shared gains: %+v", a2)
	}
	solo, _ := NewFlowController(want, 0)
	if got, ref := f2.Update(80, 300), solo.Update(80, 300); got != ref {
		t.Fatalf("controller on shared gains advertised %v, on private gains %v", got, ref)
	}
}
