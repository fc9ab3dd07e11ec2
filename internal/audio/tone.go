package audio

import "math"

// Tone describes a single sinusoidal emission — the unit of the MDN
// Music Protocol. A Music Protocol message carries exactly these three
// parameters (frequency, duration, intensity).
type Tone struct {
	// Frequency in Hz.
	Frequency float64
	// Duration in seconds. The paper's shortest usable tone was
	// approximately 30 ms.
	Duration float64
	// Amplitude is the linear peak amplitude at the speaker (1.0 =
	// speaker full scale).
	Amplitude float64
	// Phase is the initial phase in radians; useful to decorrelate
	// concurrent emitters.
	Phase float64
}

// DefaultEnvelope is the attack/release ramp applied to synthesized
// tones, in seconds. 5 ms edges remove the spectral splatter of a
// hard-keyed sinusoid without materially shortening a 30 ms tone.
const DefaultEnvelope = 0.005

// Render synthesizes the tone at the given sample rate with a linear
// attack/release envelope of DefaultEnvelope seconds on each edge
// (shortened for very brief tones so the envelope never exceeds half
// the duration).
func (t Tone) Render(sampleRate float64) *Buffer {
	return t.RenderEnvelope(sampleRate, DefaultEnvelope)
}

// RenderEnvelope synthesizes the tone with an explicit attack/release
// length in seconds.
func (t Tone) RenderEnvelope(sampleRate, envelope float64) *Buffer {
	return t.MixEnvelopeAt(NewBuffer(sampleRate, t.Duration), 0, envelope)
}

// phasorBlock is the tone-sample distance between exact phasor anchors.
const phasorBlock = 64

// MixEnvelopeAt synthesizes the tone directly into b starting at the
// given offset in seconds, with the same attack/release envelope as
// RenderEnvelope, and returns b without allocating: the acoustic
// capture hot path needs zero steady-state allocations.
//
// The sine is a block-anchored phasor. At each tone sample a that is
// a multiple of phasorBlock, counted from the tone's start, it is set
// exactly to Sincos(w*a + Phase); in between, two chains take turns
// (one holds sample i, the other i+1), each rotating by 2w, so the
// loop waits on half the multiply-add latency of a single chain. A
// span starting mid-block pre-rolls from the anchor, so each sample is
// a pure function of (tone, i) whatever part of the tone lands in b.
// It is within ~1e-11·Amplitude of math.Sin over a second of tone.
func (t Tone) MixEnvelopeAt(b *Buffer, offset, envelope float64) *Buffer {
	sr := b.SampleRate
	n := int(math.Round(t.Duration * sr))
	if n <= 0 {
		return b
	}
	edge := int(envelope * sr)
	if edge > n/2 {
		edge = n / 2
	}
	w := 2 * math.Pi * t.Frequency / sr
	sw, cw := math.Sincos(w)
	s2w, c2w := math.Sincos(2 * w)
	start := int(math.Round(offset * sr))
	// Clamp the tone-sample range to the part that lands inside b, so
	// the loop carries no per-sample bounds test.
	lo, hi := 0, n
	if start < 0 {
		lo = -start
	}
	if start+hi > len(b.Samples) {
		hi = len(b.Samples) - start
	}
	for a := lo - lo%phasorBlock; a < hi; a += phasorBlock {
		s0, c0 := math.Sincos(w*float64(a) + t.Phase)
		s1, c1 := s0*cw+c0*sw, c0*cw-s0*sw
		i := a
		for ; i < lo; i++ {
			s0, c0, s1, c1 = s1, c1, s0*c2w+c0*s2w, c0*c2w-s0*s2w
		}
		for end := min(a+phasorBlock, hi); i < end; i++ {
			v := t.Amplitude * s0
			switch {
			case edge > 0 && i < edge:
				v *= float64(i) / float64(edge)
			case edge > 0 && i >= n-edge:
				v *= float64(n-1-i) / float64(edge)
			}
			b.Samples[start+i] += v
			s0, c0, s1, c1 = s1, c1, s0*c2w+c0*s2w, c0*c2w-s0*s2w
		}
	}
	return b
}

// Chord renders several simultaneous tones of equal duration into one
// buffer. Tones shorter than the longest are padded with silence.
func Chord(sampleRate float64, tones ...Tone) *Buffer {
	maxDur := 0.0
	for _, t := range tones {
		if t.Duration > maxDur {
			maxDur = t.Duration
		}
	}
	out := NewBuffer(sampleRate, maxDur)
	for _, t := range tones {
		t.MixEnvelopeAt(out, 0, DefaultEnvelope)
	}
	return out
}

// Sequence renders tones back to back with the given gap in seconds
// between them — a "melody" in the paper's terms.
func Sequence(sampleRate, gap float64, tones ...Tone) *Buffer {
	total := 0.0
	for i, t := range tones {
		total += t.Duration
		if i < len(tones)-1 {
			total += gap
		}
	}
	out := NewBuffer(sampleRate, total)
	at := 0.0
	for _, t := range tones {
		t.MixEnvelopeAt(out, at, DefaultEnvelope)
		at += t.Duration + gap
	}
	return out
}
