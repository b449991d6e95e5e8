package timeseries

import (
	"fmt"

	"github.com/netsec-lab/rovista/internal/stats"
)

// ARIMA is a fitted ARIMA(p, d, q) model: an ARMA(p, q) model on the d-times
// differenced series, with forecasts integrated back to the original scale.
type ARIMA struct {
	D    int
	ARMA *ARMA

	// lastLevels[k] holds the final value of the series differenced k times,
	// k = 0..d−1, needed to undo the differencing during forecasting.
	lastLevels []float64
}

// FitARIMA fits an ARIMA(p, d, q) model to x.
func FitARIMA(x []float64, p, d, q int) (*ARIMA, error) {
	if d < 0 {
		return nil, fmt.Errorf("timeseries: negative differencing order d=%d", d)
	}
	work := append([]float64(nil), x...)
	last := make([]float64, 0, d)
	for k := 0; k < d; k++ {
		if len(work) < 2 {
			return nil, ErrTooShort
		}
		last = append(last, work[len(work)-1])
		work = stats.Diff(work)
	}
	arma, err := FitARMA(work, p, q)
	if err != nil {
		return nil, err
	}
	return &ARIMA{D: d, ARMA: arma, lastLevels: last}, nil
}

// Forecast predicts the next h values of the original (undifferenced) series.
// Prediction standard deviations use the integrated ψ-weights: differencing d
// times corresponds to d cumulative summations of the ARMA ψ-sequence.
func (m *ARIMA) Forecast(h int) (mean, sd []float64) {
	if h <= 0 {
		return nil, nil
	}
	dmean, _ := m.ARMA.Forecast(h)
	// Integrate the mean forecast back up through the d levels.
	mean = append([]float64(nil), dmean...)
	for k := m.D - 1; k >= 0; k-- {
		level := m.lastLevels[k]
		for i := range mean {
			level += mean[i]
			mean[i] = level
		}
	}
	// ψ-weights of the integrated process: cumulative-sum the ARMA ψ d times.
	psi := m.ARMA.PsiWeights(h)
	for k := 0; k < m.D; k++ {
		acc := 0.0
		for i := range psi {
			acc += psi[i]
			psi[i] = acc
		}
	}
	sd = make([]float64, h)
	acc := 0.0
	for i := 0; i < h; i++ {
		acc += psi[i] * psi[i]
		sd[i] = sqrt(m.ARMA.Sigma2 * acc)
	}
	return mean, sd
}

// FitAuto selects and fits a model for x following the paper's recipe:
// run the ADF test; if the series is stationary fit an ARMA model, otherwise
// difference once and fit an ARIMA(p, 1, q). Orders are chosen over a small
// grid by AIC. A degenerate or unfittable series falls back to a constant
// mean/variance model so that detection never fails outright.
func FitAuto(x []float64, alpha float64) Forecaster {
	d := 0
	if r := ADF(x, -1); !r.Degenerate && !r.StationaryAt(alpha) {
		d = 1
	}
	var best Forecaster
	bestAIC := 0.0
	for p := 0; p <= 2; p++ {
		for q := 0; q <= 1; q++ {
			if p == 0 && q == 0 {
				continue
			}
			var f Forecaster
			var aic float64
			if d == 0 {
				m, err := FitARMA(x, p, q)
				if err != nil {
					continue
				}
				f, aic = m, m.AIC()
			} else {
				m, err := FitARIMA(x, p, d, q)
				if err != nil {
					continue
				}
				f, aic = m, m.ARMA.AIC()
			}
			if best == nil || aic < bestAIC {
				best, bestAIC = f, aic
			}
		}
	}
	if best == nil {
		return NewMeanModel(x)
	}
	return best
}

// TrendModel fits x_t = a + b·t by OLS and forecasts the extrapolated trend
// with constant residual noise. The spike detector uses it for short
// nonstationary background windows, where integrating an ARIMA model's
// forecast variance would drown the spikes it is trying to find.
type TrendModel struct {
	A, B  float64 // intercept and slope
	Sigma float64 // residual standard deviation
	TStat float64 // t-statistic of the slope (trend significance)
	n     int     // fitted sample size
}

// fitTrend fits a trend model working in sc (nil: the heap); ok is false
// when the series is too short or degenerate.
func fitTrend(sc *stats.Scratch, x []float64) (m TrendModel, ok bool) {
	if len(x) < 4 {
		return TrendModel{}, false
	}
	a := sc.Matrix(len(x), 2)
	for i := range x {
		a.Set(i, 0, 1)
		a.Set(i, 1, float64(i))
	}
	res, err := stats.OLS(sc, &a, x)
	if err != nil {
		return TrendModel{}, false
	}
	sigma := sqrt(res.Sigma2)
	if sigma <= 0 {
		sigma = 0.5
	}
	return TrendModel{A: res.Coef[0], B: res.Coef[1], Sigma: sigma, TStat: res.TStat(1), n: len(x)}, true
}

// Forecast implements Forecaster.
func (m *TrendModel) Forecast(h int) (mean, sd []float64) { return m.forecast(nil, h) }

func (m *TrendModel) forecast(sc *stats.Scratch, h int) (mean, sd []float64) {
	mean = sc.Floats(h)
	sd = sc.Floats(h)
	for k := 0; k < h; k++ {
		mean[k] = m.A + m.B*float64(m.n+k)
		sd[k] = m.Sigma
	}
	return mean, sd
}

// MeanModel is the fallback forecaster: it predicts the sample mean with the
// sample standard deviation at every horizon. For the short, nearly-constant
// background-traffic series RoVista observes this is often the model that
// actually gets used, exactly as the paper's 10-packet constraint implies.
type MeanModel struct {
	Mu    float64
	Sigma float64
}

// NewMeanModel builds a MeanModel from a sample.
func NewMeanModel(x []float64) *MeanModel {
	mu := stats.Mean(x)
	sigma := stats.StdDev(x)
	if !(sigma > 0) || isNaN(sigma) { // constant or single-point series
		sigma = 0.5
	}
	if isNaN(mu) {
		mu = 0
	}
	return &MeanModel{Mu: mu, Sigma: sigma}
}

// Forecast implements Forecaster.
func (m *MeanModel) Forecast(h int) (mean, sd []float64) { return m.forecast(nil, h) }

func (m *MeanModel) forecast(sc *stats.Scratch, h int) (mean, sd []float64) {
	mean = sc.Floats(h)
	sd = sc.Floats(h)
	for i := range mean {
		mean[i] = m.Mu
		sd[i] = m.Sigma
	}
	return mean, sd
}
