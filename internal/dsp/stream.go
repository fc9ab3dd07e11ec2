package dsp

import (
	"fmt"
	"math"
)

// This file holds the incremental transform kernels of the streaming
// detection path: a sliding Goertzel bank that emits a full-window
// magnitude vector every hop without retaining samples, and an
// overlap-save STFT front end that re-reads the retained
// window-minus-hop overlap from a ring instead of re-capturing it.
//
// Both kernels are bit-exact with their batch counterparts: a window
// emitted by SlidingGoertzel equals GoertzelPlan.MagnitudesInto over
// the same samples (both run the resonate kernel, with the same
// operation order per frequency), and an OverlapSTFT frame equals
// FFTPlan.WindowedSpectrumScratch over the same samples. At
// hop == window the streaming path therefore reproduces the batch
// path's output exactly — the equivalence the streaming controller's
// tests and CI gate on.

// SlidingGoertzel evaluates a bank of Goertzel filters over a sliding
// window of WindowN samples advancing by HopN samples, incrementally:
// each input sample is consumed once, state is O(banks × frequencies),
// and no sample history is kept at all. It is implemented as
// WindowN/HopN staggered resonator banks — bank b starts at sample
// b·HopN, runs the standard Goertzel recursion for WindowN samples,
// emits its magnitudes, and restarts — so every emitted window is
// computed by exactly the per-window recursion of
// GoertzelPlan.MagnitudesInto, making the sliding output bit-exact
// with batch analysis of the same window. (A recursive per-sample
// sliding DFT would cost less per hop but drifts numerically and only
// handles bin-aligned frequencies; MDN tones are not bin-aligned.)
//
// Banks only start or emit on hop boundaries, and the started banks
// are always a prefix of the bank array, so between two boundaries
// every started bank advances over the same samples: Process runs the
// batch kernel once per such segment over all started banks' state.
//
// State is reused between calls, so a SlidingGoertzel is not safe for
// concurrent use; give each stream its own.
type SlidingGoertzel struct {
	// SampleRate is the rate the coefficients were derived for.
	SampleRate float64
	// WindowN is the analysis window length in samples.
	WindowN int
	// HopN is the hop (emission stride) in samples.
	HopN int

	freqs []float64

	// banks*nf resonator coefficients and state, laid out bank-major:
	// bank b's lane for frequency j is index b*nf+j. The coefficients
	// repeat per bank so one resonate call covers every started bank.
	coeff  []float64
	s1, s2 []float64
	banks  int

	active int // started banks: 0..active-1
	fill   int // samples consumed since the last hop boundary
	next   int // the bank that emits at the next boundary, once all have started

	mags []float64 // emission scratch, one magnitude per frequency
}

// NewSlidingGoertzel builds a sliding bank for the given frequencies.
// windowN must be a positive multiple of hopN so each hop boundary
// completes exactly one window; it panics otherwise, because a
// misaligned hop is a programming error.
func NewSlidingGoertzel(freqs []float64, sampleRate float64, windowN, hopN int) *SlidingGoertzel {
	if hopN <= 0 || windowN <= 0 || windowN%hopN != 0 {
		panic(fmt.Sprintf("dsp: SlidingGoertzel window %d is not a positive multiple of hop %d", windowN, hopN))
	}
	banks := windowN / hopN
	nf := len(freqs)
	s := &SlidingGoertzel{
		SampleRate: sampleRate,
		WindowN:    windowN,
		HopN:       hopN,
		freqs:      append([]float64(nil), freqs...),
		coeff:      make([]float64, banks*nf),
		s1:         make([]float64, banks*nf),
		s2:         make([]float64, banks*nf),
		banks:      banks,
		mags:       make([]float64, nf),
	}
	for j, f := range s.freqs {
		s.coeff[j] = 2 * math.Cos(2*math.Pi*f/sampleRate)
	}
	for b := 1; b < banks; b++ {
		copy(s.coeff[b*nf:], s.coeff[:nf])
	}
	s.Reset()
	return s
}

// Reset discards all resonator state and restarts the stagger: the
// next sample fed to Process is sample zero of the first window.
func (s *SlidingGoertzel) Reset() {
	clear(s.s1)
	clear(s.s2)
	s.active = 1
	s.fill = 0
	s.next = 0
}

// Process consumes samples in order, advancing every started bank
// over them, and calls emit each time a bank completes a window. The
// magnitude slice passed to emit is scratch owned by the bank, valid
// until Process continues — copy it to retain. Feeding HopN samples
// per call yields exactly one emission per call once the first window
// has filled. Process allocates nothing.
func (s *SlidingGoertzel) Process(samples []float64, emit func(mags []float64)) {
	nf := len(s.freqs)
	if nf == 0 {
		return
	}
	for len(samples) > 0 {
		seg := min(s.HopN-s.fill, len(samples))
		live := s.active * nf
		resonate(s.coeff[:live], s.s1[:live], s.s2[:live], samples[:seg])
		samples = samples[seg:]
		s.fill += seg
		if s.fill < s.HopN {
			return
		}
		// Hop boundary: the next bank starts, or, once all have
		// started, the oldest completes its window, emits and restarts.
		s.fill = 0
		if s.active < s.banks {
			s.active++
			continue
		}
		lo, hi := s.next*nf, (s.next+1)*nf
		s1, s2 := s.s1[lo:hi], s.s2[lo:hi]
		for j := range s.mags {
			s.mags[j] = magnitude(s.coeff[j], s1[j], s2[j])
		}
		clear(s1)
		clear(s2)
		s.next++
		if s.next == s.banks {
			s.next = 0
		}
		emit(s.mags)
	}
}

// OverlapSTFT is the streaming front end of the FFT detection method:
// a sample ring of one window plus per-hop spectrum evaluation. Each
// hop appends only the new samples; the window-minus-hop overlap is
// saved in the ring and re-read rather than re-captured — the
// overlap-save discipline, applied to analysis frames. Frame spectra
// are computed with the cached FFTPlan over caller-owned scratch, so
// steady-state frames allocate nothing and match
// FFTPlan.WindowedSpectrumScratch over the same window bit for bit.
//
// An OverlapSTFT is not safe for concurrent use.
type OverlapSTFT struct {
	// WindowN is the analysis window length in samples.
	WindowN int

	ring   []float64 // capacity WindowN, write index w
	w      int
	filled int

	lin  []float64 // linearized window scratch
	mags []float64 // spectrum magnitudes scratch
	plan *FFTPlan
	scr  FFTScratch
}

// NewOverlapSTFT builds a streaming STFT over windows of windowN
// samples. windowN must be positive.
func NewOverlapSTFT(windowN int) *OverlapSTFT {
	if windowN <= 0 {
		panic("dsp: OverlapSTFT requires a positive window")
	}
	return &OverlapSTFT{
		WindowN: windowN,
		ring:    make([]float64, windowN),
		lin:     make([]float64, windowN),
		plan:    PlanFFT(NextPowerOfTwo(windowN)),
	}
}

// Append pushes new samples into the ring, discarding the oldest when
// full. Appending more than WindowN samples at once keeps only the
// newest WindowN.
func (o *OverlapSTFT) Append(samples []float64) {
	if len(samples) > o.WindowN {
		samples = samples[len(samples)-o.WindowN:]
	}
	for _, x := range samples {
		o.ring[o.w] = x
		o.w++
		if o.w == o.WindowN {
			o.w = 0
		}
	}
	o.filled += len(samples)
	if o.filled > o.WindowN {
		o.filled = o.WindowN
	}
}

// Full reports whether a complete window has been appended.
func (o *OverlapSTFT) Full() bool { return o.filled == o.WindowN }

// Reset discards the ring contents.
func (o *OverlapSTFT) Reset() {
	o.w = 0
	o.filled = 0
}

// Window writes the current window (oldest sample first) into the
// returned slice, which is scratch owned by the OverlapSTFT, valid
// until the next Append. It is only meaningful once Full.
func (o *OverlapSTFT) Window() []float64 {
	n := copy(o.lin, o.ring[o.w:])
	copy(o.lin[n:], o.ring[:o.w])
	return o.lin
}

// Spectrum computes the windowed half-spectrum magnitudes of the
// current window under win, bit-exact with
// PlanFFT(NextPowerOfTwo(WindowN)).WindowedSpectrumScratch over the
// same samples. The returned slice is scratch owned by the
// OverlapSTFT, valid until the next Spectrum call. Steady-state calls
// allocate nothing.
func (o *OverlapSTFT) Spectrum(win Window) []float64 {
	o.mags = o.plan.WindowedSpectrumScratch(o.mags, o.Window(), win, &o.scr)
	return o.mags
}

// FFTSize returns the transform length used by Spectrum.
func (o *OverlapSTFT) FFTSize() int { return o.plan.N }
