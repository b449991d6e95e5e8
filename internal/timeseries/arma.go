// Package timeseries implements the statistical machinery from Appendix A of
// the RoVista paper: Augmented Dickey-Fuller stationarity testing, ARMA and
// ARIMA model fitting, multi-step forecasting with prediction variance, and
// one-tailed z-score spike detection over observed IP-ID growth patterns.
package timeseries

import (
	"errors"
	"fmt"
	"math"

	"github.com/netsec-lab/rovista/internal/stats"
)

// Forecaster is the common interface of fitted models: it predicts the next
// h values together with the standard deviation of each prediction error.
type Forecaster interface {
	Forecast(h int) (mean, sd []float64)
}

// ARMA is a fitted ARMA(p, q) model
//
//	x_t = c + Σ φ_i x_{t−i} + w_t + Σ θ_j w_{t−j}
//
// estimated with the Hannan–Rissanen two-stage regression procedure.
type ARMA struct {
	C      float64   // intercept
	Phi    []float64 // AR coefficients φ_1..φ_p
	Theta  []float64 // MA coefficients θ_1..θ_q
	Sigma2 float64   // innovation variance

	// tail state for forecasting: most recent observations (newest last)
	// and most recent innovation estimates (newest last).
	xTail []float64
	wTail []float64

	n int // observations used in the fit
}

// ErrTooShort is returned when a series is too short for the requested model.
var ErrTooShort = errors.New("timeseries: series too short for model order")

// FitARMA fits an ARMA(p, q) model to x. For q == 0 this reduces to a pure
// AR fit by OLS; otherwise the Hannan–Rissanen procedure is used: a long
// autoregression provides innovation estimates which then join the lagged
// observations as regressors.
func FitARMA(x []float64, p, q int) (*ARMA, error) {
	m, err := fitARMA(nil, x, p, q)
	if err != nil {
		return nil, err
	}
	return &m, nil
}

// fitARMA is FitARMA working in sc (nil: the heap); with a Scratch the
// model's slices are valid until its next Reset.
func fitARMA(sc *stats.Scratch, x []float64, p, q int) (ARMA, error) {
	if p < 0 || q < 0 {
		return ARMA{}, fmt.Errorf("timeseries: negative order p=%d q=%d", p, q)
	}
	n := len(x)
	minN := 3*(p+q+1) + 2
	if n < minN {
		return ARMA{}, ErrTooShort
	}
	var w []float64 // innovation estimates aligned with x (NaN until warm)
	if q > 0 {
		m := p + q + 2 // long-AR order for stage one
		if n < 2*m+4 {
			m = max(1, (n-4)/2)
		}
		longAR, err := fitAR(sc, x, m)
		if err != nil {
			return ARMA{}, err
		}
		w = longAR.residualSeries(sc, x)
	}

	lag := max(p, q)
	rows := 0
	for t := lag; t < n; t++ {
		if q > 0 && hasNaN(w[t-q:t]) {
			continue
		}
		rows++
	}
	cols := 1 + p + q
	if rows <= cols {
		return ARMA{}, ErrTooShort
	}
	a := sc.Matrix(rows, cols)
	b := sc.Floats(rows)
	r := 0
	for t := lag; t < n; t++ {
		if q > 0 && hasNaN(w[t-q:t]) {
			continue
		}
		a.Set(r, 0, 1)
		for i := 1; i <= p; i++ {
			a.Set(r, i, x[t-i])
		}
		for j := 1; j <= q; j++ {
			a.Set(r, p+j, w[t-j])
		}
		b[r] = x[t]
		r++
	}
	res, err := stats.OLS(sc, &a, b)
	if err != nil {
		return ARMA{}, err
	}
	m := ARMA{
		C:      res.Coef[0],
		Phi:    res.Coef[1 : 1+p : 1+p],
		Theta:  res.Coef[1+p:],
		Sigma2: res.Sigma2,
		n:      n,
	}
	m.prime(sc, x)
	return m, nil
}

// prime recomputes the innovation tail by filtering x through the model and
// stores the observation/innovation state needed for forecasting.
func (m *ARMA) prime(sc *stats.Scratch, x []float64) {
	p, q := len(m.Phi), len(m.Theta)
	w := sc.Floats(len(x))
	for t := range x {
		pred := m.C
		for i := 1; i <= p; i++ {
			if t-i >= 0 {
				pred += m.Phi[i-1] * x[t-i]
			}
		}
		for j := 1; j <= q; j++ {
			if t-j >= 0 {
				pred += m.Theta[j-1] * w[t-j]
			}
		}
		w[t] = x[t] - pred
	}
	// x belongs to the caller, so its tail is copied; w is this fit's own.
	kx := min(p, len(x))
	m.xTail = sc.Floats(kx)
	copy(m.xTail, x[len(x)-kx:])
	kw := min(q, len(w))
	m.wTail = w[len(w)-kw:]
}

// Forecast predicts the next h values. The prediction standard deviation is
// computed from the model's ψ-weights: Var[e_h] = σ² Σ_{j<h} ψ_j².
func (m *ARMA) Forecast(h int) (mean, sd []float64) { return m.forecast(nil, h) }

// forecast is Forecast working in sc (nil: the heap).
func (m *ARMA) forecast(sc *stats.Scratch, h int) (mean, sd []float64) {
	if h <= 0 {
		return nil, nil
	}
	p, q := len(m.Phi), len(m.Theta)
	// Room for the h predictions appended below.
	xs := sc.Floats(len(m.xTail) + h)[:len(m.xTail)]
	copy(xs, m.xTail)
	ws := sc.Floats(len(m.wTail) + h)[:len(m.wTail)]
	copy(ws, m.wTail)
	mean = sc.Floats(h)
	for k := 0; k < h; k++ {
		pred := m.C
		for i := 1; i <= p; i++ {
			if len(xs)-i >= 0 && i <= len(xs) {
				pred += m.Phi[i-1] * xs[len(xs)-i]
			}
		}
		for j := 1; j <= q; j++ {
			if j <= len(ws) {
				pred += m.Theta[j-1] * ws[len(ws)-j]
			}
		}
		mean[k] = pred
		xs = append(xs, pred)
		ws = append(ws, 0) // future innovations have zero expectation
	}
	psi := m.psiWeights(sc, h)
	sd = sc.Floats(h)
	acc := 0.0
	for k := 0; k < h; k++ {
		acc += psi[k] * psi[k]
		sd[k] = math.Sqrt(m.Sigma2 * acc)
	}
	return mean, sd
}

// PsiWeights returns the first h MA(∞) ψ-weights of the model (ψ_0 = 1).
func (m *ARMA) PsiWeights(h int) []float64 { return m.psiWeights(nil, h) }

func (m *ARMA) psiWeights(sc *stats.Scratch, h int) []float64 {
	p, q := len(m.Phi), len(m.Theta)
	psi := sc.Floats(h)
	if h == 0 {
		return psi
	}
	psi[0] = 1
	for j := 1; j < h; j++ {
		v := 0.0
		if j <= q {
			v += m.Theta[j-1]
		}
		for i := 1; i <= p && i <= j; i++ {
			v += m.Phi[i-1] * psi[j-i]
		}
		psi[j] = v
	}
	return psi
}

// arFit is a pure autoregression used internally for Hannan–Rissanen stage one.
type arFit struct {
	c    float64
	phi  []float64
	sig2 float64
}

func fitAR(sc *stats.Scratch, x []float64, p int) (arFit, error) {
	n := len(x)
	if n <= p+2 {
		return arFit{}, ErrTooShort
	}
	rows := n - p
	a := sc.Matrix(rows, p+1)
	b := sc.Floats(rows)
	for t := p; t < n; t++ {
		r := t - p
		a.Set(r, 0, 1)
		for i := 1; i <= p; i++ {
			a.Set(r, i, x[t-i])
		}
		b[r] = x[t]
	}
	res, err := stats.OLS(sc, &a, b)
	if err != nil {
		return arFit{}, err
	}
	return arFit{c: res.Coef[0], phi: res.Coef[1:], sig2: res.Sigma2}, nil
}

// residualSeries returns innovation estimates aligned with x; entries before
// the warm-up window are NaN.
func (f *arFit) residualSeries(sc *stats.Scratch, x []float64) []float64 {
	p := len(f.phi)
	w := sc.Floats(len(x))
	for t := range x {
		if t < p {
			w[t] = math.NaN()
			continue
		}
		pred := f.c
		for i := 1; i <= p; i++ {
			pred += f.phi[i-1] * x[t-i]
		}
		w[t] = x[t] - pred
	}
	return w
}

// AIC returns Akaike's information criterion for the fitted model, used for
// order selection in FitAuto.
func (m *ARMA) AIC() float64 {
	k := float64(1 + len(m.Phi) + len(m.Theta))
	n := float64(m.n)
	s2 := m.Sigma2
	if s2 <= 0 {
		s2 = 1e-12
	}
	return n*math.Log(s2) + 2*k
}

func hasNaN(xs []float64) bool {
	for _, v := range xs {
		if math.IsNaN(v) {
			return true
		}
	}
	return false
}
