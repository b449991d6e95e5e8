package detect

import "math"

// The Appendix-A detector: fit a model to the background growth before the
// burst, forecast the post-burst window, and flag every post value whose
// one-tailed z-score against the forecast clears the critical value. The
// model is chosen by an ADF gate: a nonstationary background with an
// overwhelmingly significant slope is extrapolated as a linear trend,
// anything else gets the better of AR(1) and AR(2) by AIC, and a window no
// AR model fits falls back to its mean.

// zAlpha is Φ⁻¹(1 − α), the normal critical value the small-sample
// correction starts from.
var zAlpha = normalQuantile(1 - alpha)

// minExcess discards statistically significant but physically tiny spikes
// (Poisson shot noise): a spike must carry half the burst.
const minExcess = spoofCount / 2.0

// spike is one detected spike in the post window.
type spike struct {
	index  int     // position within the post window
	z      float64 // z-score against the forecast
	excess float64 // observed − predicted, in packets
}

// spikeResult is the outcome of one detection.
type spikeResult struct {
	spikes []spike
	// fnRate is the estimated asymptotic false-negative probability for a
	// spike of spoofCount packets given the fitted noise level.
	fnRate float64
	// usable reports whether the vVP's background noise admits any inference
	// at all (the paper excludes vVPs whose estimated FP/FN exceeds α).
	usable bool
}

// workspace is the memory detections work in: the bump allocator behind
// every fit and the spike buffer. It is reset at the start of each detect,
// so a spikeResult's spikes are valid until the next one.
type workspace struct {
	floats scratch
	spikes []spike
}

// detect fits a model to the background series pre (IP-ID growth per probe
// interval) and tests each value of post for an upward spike.
func (ws *workspace) detect(pre, post []float64) spikeResult {
	if len(post) == 0 {
		return spikeResult{}
	}
	// A fit window shorter than the smallest model needs admits no inference
	// at all: with fewer samples than the AR order every fit falls through
	// to the mean, and a mean over zero-to-three samples turns ordinary
	// Poisson noise into spurious high-z "spikes" that the caller would then
	// trust (lost probes, by contrast, are caught upstream by the
	// sample-count check). Declare the vVP unusable instead.
	if len(pre) < 4 {
		return spikeResult{fnRate: 1}
	}
	sc := &ws.floats
	sc.reset()
	res := spikeResult{spikes: ws.spikes[:0]}
	mean, sd := forecast(sc, pre, len(post))

	// Small-sample corrections: the paper fits on as few as 10 probes, where
	// OLS understates the innovation variance and the normal quantile is too
	// permissive. Use a Student-t-style critical value with the effective
	// degrees of freedom and floor the noise estimate by the (model-free)
	// differenced-series estimate σ̂ ≈ sd(Δpre)/√2.
	dof := float64(len(pre) - 4)
	if dof < 3 {
		dof = 3
	}
	z := zAlpha
	tAlpha := z + (z*z*z+z)/(4*dof) // Cornish-Fisher expansion of t quantile
	floor := 0.5                    // half a packet per interval at minimum
	if diffs := sc.diff(pre); len(diffs) >= 2 {
		if f := stdDev(diffs) / math.Sqrt2; f > floor {
			floor = f
		}
	}

	for k := range post {
		s := sd[k]
		if s < floor {
			s = floor
		}
		z := (post[k] - mean[k]) / s
		if z > tAlpha && post[k]-mean[k] >= minExcess {
			res.spikes = append(res.spikes, spike{index: k, z: z, excess: post[k] - mean[k]})
		}
	}
	ws.spikes = res.spikes // keep what append grew

	// Appendix A: the asymptotic FN rate for a spike of size s is
	// Φ(t_α − s/σ̂); exclude vVPs for which this exceeds α.
	noise := sd[0]
	if noise < floor {
		noise = floor
	}
	res.fnRate = normalCDF(tAlpha - spoofCount/noise)
	res.usable = res.fnRate <= alpha
	return res
}

// forecast fits the background model to pre and predicts the next h values
// with the standard deviation of each prediction. A nonstationary
// background is modelled as a deterministic linear trend with *constant*
// prediction noise: compounding an integrated model's forecast variance
// over the post window would swallow the RTO echo spike that distinguishes
// outbound filtering.
func forecast(sc *scratch, pre []float64, h int) (mean, sd []float64) {
	if stat, crit, ok := adf(sc, pre); ok && !(stat < crit) {
		// Short windows make ADF unreliable, so additionally require the
		// fitted trend itself to be overwhelmingly significant before
		// extrapolating it: a spurious slope fitted to ~10 Poisson samples
		// inflates the forecast exactly where the RTO echo lands, turning
		// outbound filtering into "no filtering". Genuine ramps (the only
		// nonstationarity the hosts exhibit) clear t > 5 easily.
		if tr, ok := fitTrend(sc, pre); ok && tr.tStat1() > 5 {
			sigma := math.Sqrt(tr.sigma2)
			if sigma <= 0 {
				sigma = 0.5
			}
			mean, sd = sc.floats(h), sc.floats(h)
			for k := range mean {
				mean[k] = tr.coef[0] + tr.coef[1]*float64(len(pre)+k)
				sd[k] = sigma
			}
			return mean, sd
		}
	}
	var best arModel
	fitted, bestAIC := false, 0.0
	for p := 1; p <= 2; p++ {
		m, ok := fitAR(sc, pre, p)
		if !ok {
			continue
		}
		if aic := m.aic(); !fitted || aic < bestAIC {
			best, bestAIC, fitted = m, aic, true
		}
	}
	if fitted {
		return best.forecast(sc, h)
	}
	// No AR model fits (a constant or too short window): predict the sample
	// mean with the sample standard deviation at every horizon.
	mu, sigma := meanOf(pre), stdDev(pre)
	if !(sigma > 0) {
		sigma = 0.5
	}
	mean, sd = sc.floats(h), sc.floats(h)
	for k := range mean {
		mean[k] = mu
		sd[k] = sigma
	}
	return mean, sd
}

// adf runs the Augmented Dickey-Fuller unit-root test with an intercept (the
// "constant, no trend" specification: IP-ID growth-rate series have a level
// but no deterministic trend once stationary) and Schwert's ⌊12·(n/100)^¼⌋
// lagged differences, capped to what the sample supports. It returns the
// t-statistic on γ in Δx_t = α + γ x_{t−1} + Σ δ_i Δx_{t−i} + ε_t and the
// 5 % critical value; the unit-root null is rejected (x is stationary) when
// stat < crit. ok is false when the series is too short or constant to test.
func adf(sc *scratch, x []float64) (stat, crit float64, ok bool) {
	n := len(x)
	if n < 8 || isConstant(x) {
		return 0, 0, false
	}
	a, b := adfDesign(sc, x)
	res, ok := fitOLS(sc, &a, b, true)
	if !ok {
		return 0, 0, false
	}
	return res.tStat1(), adfCrit5(a.rows), true
}

// adfDesign lays out adf's regression of x (at least two observations):
// Δx_t against [1, x_{t−1}, Δx_{t−1}, …, Δx_{t−lags}].
func adfDesign(sc *scratch, x []float64) (matrix, []float64) {
	n := len(x)
	lags := int(math.Floor(12 * math.Pow(float64(n)/100, 0.25)))
	// Each lag costs observations and a regressor; shrink until the
	// regression has more rows than columns.
	for lags > 0 && n-1-lags <= lags+3 {
		lags--
	}
	dx := sc.diff(x)
	rows := len(dx) - lags
	a := sc.matrix(rows, 2+lags) // intercept, x_{t-1}, lagged diffs
	b := sc.floats(rows)
	for t := lags; t < len(dx); t++ {
		r := t - lags
		a.set(r, 0, 1)
		a.set(r, 1, x[t]) // x_{t-1} relative to dx index t (dx[t] = x[t+1]-x[t])
		for i := 1; i <= lags; i++ {
			a.set(r, 1+i, dx[t-i])
		}
		b[r] = dx[t]
	}
	return a, b
}

// adfCrit5 is the MacKinnon response-surface 5 % critical value of the
// constant-only ADF regression on n observations: β∞ + β1/n + β2/n².
func adfCrit5(n int) float64 {
	nn := float64(n)
	return -2.86154 - 2.8903/nn - 4.234/(nn*nn)
}

func isConstant(x []float64) bool {
	for i := 1; i < len(x); i++ {
		if x[i] != x[0] {
			return false
		}
	}
	return true
}

// fitTrend fits x_t = a + b·t by OLS, with the slope's standard error.
func fitTrend(sc *scratch, x []float64) (olsFit, bool) {
	a := trendDesign(sc, len(x))
	return fitOLS(sc, &a, x, true)
}

// trendDesign lays out the regressors [1, t] of a linear trend over n
// observations.
func trendDesign(sc *scratch, n int) matrix {
	a := sc.matrix(n, 2)
	for i := 0; i < n; i++ {
		a.set(i, 0, 1)
		a.set(i, 1, float64(i))
	}
	return a
}

// arModel is an AR(p) model x_t = c + Σ φ_i x_{t−i} + w_t fitted by OLS.
type arModel struct {
	c      float64
	phi    []float64 // φ_1..φ_p
	sigma2 float64   // innovation variance
	xTail  []float64 // the last p observations, oldest first
	n      int       // observations the fit was given
}

// fitAR fits an AR(p) model to x; ok is false when x is too short for the
// order or the regression is singular.
func fitAR(sc *scratch, x []float64, p int) (arModel, bool) {
	n := len(x)
	if n < 3*(p+1)+2 {
		return arModel{}, false
	}
	a, b := arDesign(sc, x, p)
	res, ok := fitOLS(sc, &a, b, false)
	if !ok {
		return arModel{}, false
	}
	return arModel{c: res.coef[0], phi: res.coef[1:], sigma2: res.sigma2, xTail: x[n-p:], n: n}, true
}

// arDesign lays out the AR(p) regression of x: x_t against
// [1, x_{t−1}, …, x_{t−p}] for t = p … len(x)−1.
func arDesign(sc *scratch, x []float64, p int) (matrix, []float64) {
	rows := len(x) - p
	a := sc.matrix(rows, 1+p)
	b := sc.floats(rows)
	for t := p; t < len(x); t++ {
		r := t - p
		a.set(r, 0, 1)
		for i := 1; i <= p; i++ {
			a.set(r, i, x[t-i])
		}
		b[r] = x[t]
	}
	return a, b
}

// aic is Akaike's information criterion of the fit.
func (m *arModel) aic() float64 {
	k := float64(1 + len(m.phi))
	n := float64(m.n)
	s2 := m.sigma2
	if s2 <= 0 {
		s2 = 1e-12
	}
	return n*math.Log(s2) + 2*k
}

// forecast predicts the next h values. The prediction standard deviation
// comes from the model's ψ-weights (ψ_0 = 1, ψ_j = Σ φ_i ψ_{j−i}):
// Var[e_h] = σ² Σ_{j<h} ψ_j².
func (m *arModel) forecast(sc *scratch, h int) (mean, sd []float64) {
	p := len(m.phi)
	// The observations, then the predictions appended one by one.
	xs := sc.floats(p + h)
	copy(xs, m.xTail)
	mean = sc.floats(h)
	for k := range mean {
		pred := m.c
		for i := 1; i <= p; i++ {
			pred += m.phi[i-1] * xs[p+k-i]
		}
		mean[k] = pred
		xs[p+k] = pred
	}
	psi := sc.floats(h)
	sd = sc.floats(h)
	acc := 0.0
	for j := range psi {
		v := 1.0
		if j > 0 {
			v = 0.0
			for i := 1; i <= p && i <= j; i++ {
				v += m.phi[i-1] * psi[j-i]
			}
		}
		psi[j] = v
		acc += psi[j] * psi[j]
		sd[j] = math.Sqrt(m.sigma2 * acc)
	}
	return mean, sd
}

// GrowthSeries converts raw IP-ID samples into the per-interval growth
// series the detector consumes: the forward distance between consecutive
// samples on the 16-bit ring, so 0xFFFE → 0x0003 is 5.
func GrowthSeries(ids []uint16) []float64 {
	if len(ids) < 2 {
		return nil
	}
	return appendGrowth(make([]float64, 0, len(ids)-1), ids)
}

// appendGrowth appends the growth series of ids to dst.
func appendGrowth(dst []float64, ids []uint16) []float64 {
	for i := 1; i < len(ids); i++ {
		dst = append(dst, float64(ids[i]-ids[i-1]))
	}
	return dst
}
