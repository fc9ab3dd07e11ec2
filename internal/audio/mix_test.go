package audio

import (
	"math"
	"math/rand"
	"testing"
)

// The direct-mix APIs exist so the acoustic capture path can reach
// zero steady-state allocations; their contract is bit-identity with
// the allocate-then-MixAt path they replace. These tests pin exactly
// that, sample for sample, across awkward offsets (negative, past the
// end, sub-sample, starting on and beside a phasor anchor) and tone
// lengths (shorter than the envelope, zero-length, many phasor
// blocks long).

func TestMixEnvelopeAtMatchesRenderMixAt(t *testing.T) {
	const sr = 44100.0
	tones := []Tone{
		{Frequency: 440, Duration: 0.065, Amplitude: 0.3},
		{Frequency: 1234.5, Duration: 0.031, Amplitude: 0.8, Phase: 1.1},
		{Frequency: 7900, Duration: 0.004, Amplitude: 0.05}, // shorter than the envelope
		{Frequency: 200, Duration: 0, Amplitude: 1},         // renders nothing
		{Frequency: 3001.7, Duration: 0.7, Amplitude: 0.6, Phase: 6.28},
	}
	offsets := []float64{0, 0.01, 0.0123456, -0.02, 0.19, -0.1, 0.21, -0.45}
	// The buffer starts this many samples into the tone: beside,
	// on and between phasor anchors.
	for _, k := range []float64{1, 63, 64, 65, 127} {
		offsets = append(offsets, -k/sr)
	}
	for _, tone := range tones {
		for _, off := range offsets {
			want := NewBuffer(sr, 0.2)
			want.MixAt(tone.RenderEnvelope(sr, DefaultEnvelope), off, 1)
			got := NewBuffer(sr, 0.2)
			tone.MixEnvelopeAt(got, off, DefaultEnvelope)
			for i := range want.Samples {
				if want.Samples[i] != got.Samples[i] {
					t.Fatalf("tone %+v offset %g: sample %d = %x, want %x",
						tone, off, i, got.Samples[i], want.Samples[i])
				}
			}
		}
	}
}

// TestMixEnvelopeAtTracksSin bounds the phasor's drift from the
// math.Sin it replaces, before the envelope (a zero-length envelope
// leaves every sample unscaled).
func TestMixEnvelopeAtTracksSin(t *testing.T) {
	const sr = 44100.0
	for _, hz := range []float64{20, 55, 440, 1234.5, 7900, 15000, 20000} {
		for _, phase := range []float64{0, 1.1, 6.28} {
			for _, amp := range []float64{1, 0.3} {
				tone := Tone{Frequency: hz, Duration: 1, Amplitude: amp, Phase: phase}
				b := tone.MixEnvelopeAt(NewBuffer(sr, 1), 0, 0)
				w := 2 * math.Pi * hz / sr
				for i, got := range b.Samples {
					want := amp * math.Sin(w*float64(i)+phase)
					if d := math.Abs(got - want); d > 1e-10*amp {
						t.Fatalf("%g Hz phase %g amp %g: sample %d off by %g", hz, phase, amp, i, d)
					}
				}
			}
		}
	}
}

func TestMixEnvelopeAtAccumulates(t *testing.T) {
	const sr = 8000.0
	tone := Tone{Frequency: 500, Duration: 0.05, Amplitude: 0.4}
	want := NewBuffer(sr, 0.1)
	want.MixAt(tone.Render(sr), 0.01, 1)
	want.MixAt(tone.Render(sr), 0.03, 1)
	got := NewBuffer(sr, 0.1)
	tone.MixEnvelopeAt(got, 0.01, DefaultEnvelope)
	tone.MixEnvelopeAt(got, 0.03, DefaultEnvelope)
	for i := range want.Samples {
		if want.Samples[i] != got.Samples[i] {
			t.Fatalf("sample %d = %x, want %x", i, got.Samples[i], want.Samples[i])
		}
	}
}

func TestMixWhiteNoiseMatchesWhiteNoiseMixAt(t *testing.T) {
	const sr, d, rms, seed = 44100.0, 0.05, 0.002, int64(42)
	want := NewBuffer(sr, d)
	want.MixAt(WhiteNoise(sr, d, rms, seed), 0, 1)
	got := NewBuffer(sr, d)
	MixWhiteNoise(got, rms, rand.New(rand.NewSource(seed)))
	for i := range want.Samples {
		if want.Samples[i] != got.Samples[i] {
			t.Fatalf("sample %d = %x, want %x", i, got.Samples[i], want.Samples[i])
		}
	}
}

func TestMixWhiteNoiseReseededGeneratorRepeats(t *testing.T) {
	// The capture path reuses one generator and reseeds it per window;
	// a reseed must reproduce the fresh-generator stream exactly.
	const sr, d, rms, seed = 44100.0, 0.02, 0.001, int64(7)
	rng := rand.New(rand.NewSource(seed))
	first := NewBuffer(sr, d)
	MixWhiteNoise(first, rms, rng)
	rng.Seed(seed)
	second := NewBuffer(sr, d)
	MixWhiteNoise(second, rms, rng)
	for i := range first.Samples {
		if first.Samples[i] != second.Samples[i] {
			t.Fatalf("reseeded stream diverged at sample %d", i)
		}
	}
}

func BenchmarkMixEnvelopeAt(b *testing.B) {
	const sr = 44100.0
	tone := Tone{Frequency: 440, Duration: 0.065, Amplitude: 0.3}
	out := NewBuffer(sr, 0.1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tone.MixEnvelopeAt(out, 0.01, DefaultEnvelope)
	}
}
