// Package control implements the control-theoretic core of ACES tier 2:
// the Linear Quadratic Regulator (LQR) synthesis the paper's Appendix A
// alludes to, and the resulting flow-control law (paper Eq. 7)
//
//	r_max,j(n) = [ρ_j(n) − Σ_{k=0..K} λ_k (b_j(n−k) − b0)
//	                     − Σ_{l=1..L} μ_l (r_max,j(n−l) − ρ_j(n−l))]⁺
//
// The plant is the buffer integrator: with buffer error e(n) = b(n) − b0
// and control deviation v(n) = r_max(n) − ρ(n), arrivals follow the rate
// advertised Delay ticks earlier, so
//
//	e(n+1) = e(n) + v(n − Delay + 1) + disturbance.
//
// Embedding the actuation delay into the state yields a (Delay)-dimensional
// linear system; solving the discrete algebraic Riccati equation (DARE) for
// it produces the gain vector, whose first entry is λ₀ (buffer feedback)
// and remaining entries are μ₁..μ_{Delay−1} (past-control feedback) —
// exactly the structure of Eq. 7. An optional measurement-smoothing window
// spreads λ₀ across the last K+1 buffer samples, giving the λ_k taps.
package control

import (
	"fmt"

	"aces/internal/mat"
)

// DARE solves the discrete algebraic Riccati equation
//
//	P = Q + Aᵀ P A − Aᵀ P B (R + Bᵀ P B)⁻¹ Bᵀ P A
//
// by fixed-point iteration from P = Q, and returns P together with the
// optimal state-feedback gain K = (R + Bᵀ P B)⁻¹ Bᵀ P A (so u = −K x).
// It returns an error when the iteration fails to converge, which for this
// plant family indicates an unstabilizable configuration.
func DARE(a, b, q, r *mat.Matrix) (p, k *mat.Matrix, err error) {
	const (
		maxIter = 10000
		tol     = 1e-12
	)
	if a.Rows() != a.Cols() {
		return nil, nil, fmt.Errorf("control: A must be square, got %dx%d", a.Rows(), a.Cols())
	}
	if b.Rows() != a.Rows() {
		return nil, nil, fmt.Errorf("control: B row count %d must match A dimension %d", b.Rows(), a.Rows())
	}
	p = q.Clone()
	at := a.T()
	bt := b.T()
	for i := 0; i < maxIter; i++ {
		btp := mat.Mul(bt, p)                   // Bᵀ P
		s := mat.Add(r, mat.Mul(btp, b))        // R + Bᵀ P B
		g, err := mat.Solve(s, mat.Mul(btp, a)) // (R + BᵀPB)⁻¹ BᵀPA
		if err != nil {
			return nil, nil, fmt.Errorf("control: DARE inner solve: %w", err)
		}
		pa := mat.Mul(p, a)
		next := mat.Add(q, mat.Sub(mat.Mul(at, pa), mat.Mul(mat.Mul(at, mat.Mul(p, b)), g)))
		if mat.MaxAbsDiff(next, p) < tol {
			return next, g, nil
		}
		p = next
	}
	return nil, nil, fmt.Errorf("control: DARE did not converge in %d iterations", maxIter)
}

// FlowGains holds the coefficients of the paper's Eq. 7 control law.
type FlowGains struct {
	// B0 is the target buffer occupancy (the paper's b₀, default B/2).
	B0 float64
	// Lambda are the buffer-error taps λ₀..λ_K.
	Lambda []float64
	// Mu are the past-control taps μ₁..μ_L (Mu[0] is μ₁).
	Mu []float64
	// Delay is the actuation delay (in control ticks) the gains were
	// designed for; used by the stability check.
	Delay int
}

// DesignConfig parameterizes the LQR synthesis.
type DesignConfig struct {
	// Delay is the actuation delay in control ticks: the number of ticks
	// between advertising r_max upstream and the corresponding SDOs
	// arriving. Must be ≥ 1. The distributed setting of the paper (feedback
	// propagated every Δt to the upstream node) corresponds to Delay = 2.
	Delay int
	// QWeight penalizes squared buffer error; RWeight penalizes squared
	// control deviation. Their ratio sets the aggressiveness: large Q/R
	// drives the buffer to b₀ fast at the cost of rate swings ("if
	// constants λ_k are large relative to μ_l, the PE tries to make b(n)
	// equal b₀; if μ_l are large, the PE attempts to equalize the input and
	// processing rates" — §V-C). Both must be positive.
	QWeight, RWeight float64
	// Smoothing spreads the buffer gain over the last Smoothing+1 buffer
	// samples (the λ_k taps, k = 0..Smoothing), filtering measurement
	// noise. 0 uses only the current sample.
	Smoothing int
	// B0 is the buffer occupancy target.
	B0 float64
}

// Validate checks the configuration.
func (c DesignConfig) Validate() error {
	if c.Delay < 1 {
		return fmt.Errorf("control: Delay must be ≥ 1, got %d", c.Delay)
	}
	if c.QWeight <= 0 || c.RWeight <= 0 {
		return fmt.Errorf("control: QWeight and RWeight must be positive, got %g, %g", c.QWeight, c.RWeight)
	}
	if c.Smoothing < 0 {
		return fmt.Errorf("control: Smoothing must be ≥ 0, got %d", c.Smoothing)
	}
	if c.B0 < 0 {
		return fmt.Errorf("control: B0 must be ≥ 0, got %g", c.B0)
	}
	return nil
}

// DefaultDesign returns the design used throughout the reproduction:
// distributed one-hop feedback (Delay = 2), Q/R = 1/8 for a gentle,
// well-damped response, one smoothing tap, and the paper's b₀ target
// passed in by the caller.
func DefaultDesign(b0 float64) DesignConfig {
	return DesignConfig{Delay: 2, QWeight: 1, RWeight: 8, Smoothing: 1, B0: b0}
}

// Design synthesizes FlowGains by solving the DARE for the delay-embedded
// buffer integrator.
func Design(cfg DesignConfig) (FlowGains, error) {
	if err := cfg.Validate(); err != nil {
		return FlowGains{}, err
	}
	d := cfg.Delay
	// State x(n) = [e(n), v(n−1), …, v(n−d+1)] (dimension d);
	// e(n+1) = e(n) + v(n−d+1); the control input is v(n).
	a := mat.New(d, d)
	a.Set(0, 0, 1)
	if d > 1 {
		a.Set(0, d-1, 1) // e picks up the oldest buffered control
		for i := 2; i < d; i++ {
			a.Set(i, i-1, 1) // shift the control history
		}
	}
	b := mat.New(d, 1)
	if d == 1 {
		b.Set(0, 0, 1) // immediate actuation
	} else {
		b.Set(1, 0, 1) // v(n) enters the history register
	}
	q := mat.New(d, d)
	q.Set(0, 0, cfg.QWeight)
	r := mat.New(1, 1)
	r.Set(0, 0, cfg.RWeight)

	_, k, err := DARE(a, b, q, r)
	if err != nil {
		return FlowGains{}, fmt.Errorf("control: LQR design failed: %w", err)
	}

	// K is 1×d: v(n) = −K x(n) = −k₀ e(n) − Σ_{l=1}^{d−1} k_l v(n−l).
	lambda0 := k.At(0, 0)
	mu := make([]float64, 0, d-1)
	for l := 1; l < d; l++ {
		mu = append(mu, k.At(0, l))
	}
	// Spread λ₀ across the smoothing window.
	taps := cfg.Smoothing + 1
	lambda := make([]float64, taps)
	for i := range lambda {
		lambda[i] = lambda0 / float64(taps)
	}
	g := FlowGains{B0: cfg.B0, Lambda: lambda, Mu: mu, Delay: d}
	if rho := ClosedLoopRadius(g); rho >= 1 {
		return FlowGains{}, fmt.Errorf("control: designed gains are unstable (ρ = %.4f); reduce Smoothing or QWeight", rho)
	}
	return g, nil
}

// DesignMemo memoizes Design by configuration. Every PE with the same
// buffer size and weights solves the same DARE, so a deployment builder
// designs once per distinct configuration and shares the result. The
// shared gains' Lambda and Mu slices are read-only: FlowController only
// reads them. The zero value is ready to use; a DesignMemo is not safe
// for concurrent use.
type DesignMemo struct {
	gains map[DesignConfig]FlowGains
}

// Design returns Design(cfg), solving it only on the first request for
// cfg. Failed designs are not memoized.
func (d *DesignMemo) Design(cfg DesignConfig) (FlowGains, error) {
	if g, ok := d.gains[cfg]; ok {
		return g, nil
	}
	g, err := Design(cfg)
	if err != nil {
		return g, err
	}
	if d.gains == nil {
		d.gains = make(map[DesignConfig]FlowGains)
	}
	d.gains[cfg] = g
	return g, nil
}

// ClosedLoopRadius returns the spectral radius of the closed loop formed by
// the gains acting on the delayed buffer integrator. A radius < 1 means the
// loop is asymptotically stable: from any initial buffer level the error
// decays geometrically (the paper's §V-C asymptotic-stability guarantee).
func ClosedLoopRadius(g FlowGains) float64 {
	k := len(g.Lambda) - 1 // buffer history taps beyond current
	l := len(g.Mu)
	d := g.Delay
	if d < 1 {
		d = 1
	}
	// Control lag order: v(n−1) … v(n−m).
	m := l
	if d-1 > m {
		m = d - 1
	}
	// State: [e(n), e(n−1)…e(n−k), v(n−1)…v(n−m)]  (dimension k+1+m).
	dim := k + 1 + m
	cl := mat.New(dim, dim)
	// v(n) = −Σ λ_i e(n−i) − Σ μ_j v(n−j): coefficients used below.
	vCoefE := func(i int) float64 { return -g.Lambda[i] }
	vCoefV := func(j int) float64 { // j = 1..l
		return -g.Mu[j-1]
	}
	// Row 0: e(n+1) = e(n) + v(n−d+1).
	cl.Set(0, 0, 1)
	if d == 1 {
		// Substitute v(n) directly.
		for i := 0; i <= k; i++ {
			cl.Set(0, i, cl.At(0, i)+vCoefE(i))
		}
		for j := 1; j <= l; j++ {
			cl.Set(0, k+j, cl.At(0, k+j)+vCoefV(j))
		}
	} else {
		// v(n−d+1) is state element k + (d−1).
		cl.Set(0, k+d-1, cl.At(0, k+d-1)+1)
	}
	// Rows 1..k: shift buffer-error history, e(n+1−i) = e(n−(i−1)).
	for i := 1; i <= k; i++ {
		cl.Set(i, i-1, 1)
	}
	// Row k+1: v(n) from the control law (next step's v(n−1)).
	if m >= 1 {
		for i := 0; i <= k; i++ {
			cl.Set(k+1, i, vCoefE(i))
		}
		for j := 1; j <= l; j++ {
			cl.Set(k+1, k+j, vCoefV(j))
		}
		// Rows k+2..k+m: shift control history.
		for j := 2; j <= m; j++ {
			cl.Set(k+j, k+j-1, 1)
		}
	}
	return mat.SpectralRadius(cl)
}
