package dsp

import "math"

// Goertzel evaluates the magnitude of a single frequency component in
// a block of samples using the Goertzel algorithm. It is the cheap
// alternative to a full FFT when only a handful of known frequencies
// (an MDN frequency plan) must be checked.
//
// The returned value is comparable to the magnitude of the
// corresponding FFT bin of the same block.
func Goertzel(samples []float64, freq, sampleRate float64) float64 {
	if len(samples) == 0 || sampleRate <= 0 {
		return 0
	}
	// Use the exact normalised frequency rather than the nearest
	// integer bin: MDN tones are not bin-aligned in general.
	coeff := [1]float64{2 * math.Cos(2*math.Pi*freq/sampleRate)}
	var s1, s2 [1]float64
	resonate(coeff[:], s1[:], s2[:], samples)
	return magnitude(coeff[0], s1[0], s2[0])
}

// magnitude is the Goertzel output of one resonator's final state.
func magnitude(coeff, s1, s2 float64) float64 {
	power := s1*s1 + s2*s2 - coeff*s1*s2
	if power < 0 {
		power = 0
	}
	return math.Sqrt(power)
}

// lanes is how many resonators resonate8 advances together. One
// resonator step is a dependent multiply-add-subtract chain of about
// twelve cycles, so it takes eight independent chains to keep both
// floating-point ports busy; four lanes measured slower than eight at
// every watch size tried (6, 25 and 130 tones).
const lanes = 8

// resonate advances every resonator j over samples by the Goertzel
// recurrence s0 = x + coeff[j]*s1[j] - s2[j], carrying the state in
// s1[j] and s2[j] across calls. It is the only place in the package
// the recurrence runs. Resonators go through in groups of eight held
// in registers; a short tail group is zero-padded to eight lanes, so
// watch lists under eight tones still get eight independent chains.
// Every lane evaluates the expression in the same order as a lone
// resonator would, so the result for each frequency is bit-identical
// however the bank is grouped or the samples are split across calls.
func resonate(coeff, s1, s2, samples []float64) {
	n := len(coeff)
	s1, s2 = s1[:n], s2[:n]
	j := 0
	for ; j+lanes <= n; j += lanes {
		resonate8((*[lanes]float64)(coeff[j:j+lanes]), (*[lanes]float64)(s1[j:j+lanes]), (*[lanes]float64)(s2[j:j+lanes]), samples)
	}
	if j == n {
		return
	}
	var c, a, b [lanes]float64
	copy(c[:], coeff[j:])
	copy(a[:], s1[j:])
	copy(b[:], s2[j:])
	resonate8(&c, &a, &b, samples)
	copy(s1[j:], a[:])
	copy(s2[j:], b[:])
}

// resonate8 advances eight resonators over samples. The loop takes two
// samples per pass and lets the two state registers of each lane swap
// roles between them (the first step writes the new s1 over s2, the
// second writes it back over s1), so no state is copied between steps.
func resonate8(c, s1, s2 *[lanes]float64, samples []float64) {
	a0, a1, a2, a3, a4, a5, a6, a7 := s1[0], s1[1], s1[2], s1[3], s1[4], s1[5], s1[6], s1[7]
	b0, b1, b2, b3, b4, b5, b6, b7 := s2[0], s2[1], s2[2], s2[3], s2[4], s2[5], s2[6], s2[7]
	i := 0
	for ; i+1 < len(samples); i += 2 {
		x, y := samples[i], samples[i+1]
		b0 = x + c[0]*a0 - b0
		b1 = x + c[1]*a1 - b1
		b2 = x + c[2]*a2 - b2
		b3 = x + c[3]*a3 - b3
		b4 = x + c[4]*a4 - b4
		b5 = x + c[5]*a5 - b5
		b6 = x + c[6]*a6 - b6
		b7 = x + c[7]*a7 - b7
		a0 = y + c[0]*b0 - a0
		a1 = y + c[1]*b1 - a1
		a2 = y + c[2]*b2 - a2
		a3 = y + c[3]*b3 - a3
		a4 = y + c[4]*b4 - a4
		a5 = y + c[5]*b5 - a5
		a6 = y + c[6]*b6 - a6
		a7 = y + c[7]*b7 - a7
	}
	if i < len(samples) {
		x := samples[i]
		b0, a0 = a0, x+c[0]*a0-b0
		b1, a1 = a1, x+c[1]*a1-b1
		b2, a2 = a2, x+c[2]*a2-b2
		b3, a3 = a3, x+c[3]*a3-b3
		b4, a4 = a4, x+c[4]*a4-b4
		b5, a5 = a5, x+c[5]*a5-b5
		b6, a6 = a6, x+c[6]*a6-b6
		b7, a7 = a7, x+c[7]*a7-b7
	}
	s1[0], s1[1], s1[2], s1[3], s1[4], s1[5], s1[6], s1[7] = a0, a1, a2, a3, a4, a5, a6, a7
	s2[0], s2[1], s2[2], s2[3], s2[4], s2[5], s2[6], s2[7] = b0, b1, b2, b3, b4, b5, b6, b7
}

// GoertzelPlan evaluates a fixed bank of frequencies over sample
// blocks, precomputing the per-frequency resonator coefficients once
// and running the whole bank through one resonate call per block — the
// planned counterpart of calling Goertzel per frequency, which
// re-derives the coefficient and runs one resonator at a time.
//
// The resonator state is reused between calls, so a plan is NOT safe
// for concurrent use; give each goroutine its own (construction is
// cheap — one math.Cos per frequency).
type GoertzelPlan struct {
	// SampleRate is the rate the coefficients were derived for.
	SampleRate float64

	freqs  []float64
	coeff  []float64 // 2*cos(2*pi*f/rate) per frequency
	s1, s2 []float64 // resonator state, reset each block
}

// NewGoertzelPlan builds a plan for the given frequencies at
// sampleRate. The frequency slice is copied.
func NewGoertzelPlan(freqs []float64, sampleRate float64) *GoertzelPlan {
	g := &GoertzelPlan{
		SampleRate: sampleRate,
		freqs:      append([]float64(nil), freqs...),
		coeff:      make([]float64, len(freqs)),
		s1:         make([]float64, len(freqs)),
		s2:         make([]float64, len(freqs)),
	}
	for i, f := range g.freqs {
		g.coeff[i] = 2 * math.Cos(2*math.Pi*f/sampleRate)
	}
	return g
}

// MagnitudesInto runs every resonator over the block in one resonate
// call and writes one magnitude per planned frequency into dst
// (reusing its capacity). Results match Goertzel per frequency.
func (g *GoertzelPlan) MagnitudesInto(dst []float64, samples []float64) []float64 {
	nf := len(g.freqs)
	dst = growFloat(dst, nf)
	if nf == 0 {
		return dst
	}
	if len(samples) == 0 || g.SampleRate <= 0 {
		for i := range dst {
			dst[i] = 0
		}
		return dst
	}
	clear(g.s1)
	clear(g.s2)
	resonate(g.coeff, g.s1, g.s2, samples)
	for j := range dst {
		dst[j] = magnitude(g.coeff[j], g.s1[j], g.s2[j])
	}
	return dst
}

// GoertzelBank evaluates many frequencies over the same block in a
// single pass. The result has one magnitude per requested frequency,
// in order.
func GoertzelBank(samples []float64, freqs []float64, sampleRate float64) []float64 {
	return NewGoertzelPlan(freqs, sampleRate).MagnitudesInto(nil, samples)
}

// GoertzelPower returns the normalised power (mean-square amplitude
// contribution) of freq in the block, i.e. magnitude scaled so that a
// unit-amplitude sinusoid at freq yields approximately 0.5.
func GoertzelPower(samples []float64, freq, sampleRate float64) float64 {
	n := float64(len(samples))
	if n == 0 {
		return 0
	}
	m := Goertzel(samples, freq, sampleRate)
	return (m / n) * (m / n) * 2
}
