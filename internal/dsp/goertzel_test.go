package dsp

import (
	"fmt"
	"math"
	"testing"
)

func sine(freq, sampleRate float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Sin(2 * math.Pi * freq * float64(i) / sampleRate)
	}
	return out
}

func TestGoertzelMatchesFFTBin(t *testing.T) {
	const (
		n          = 4096
		sampleRate = 44100.0
	)
	// Pick a bin-aligned frequency so the FFT bin holds all energy.
	k := 100
	freq := BinFrequency(k, n, sampleRate)
	x := sine(freq, sampleRate, n)

	g := Goertzel(x, freq, sampleRate)
	spec := FFTReal(x)
	fftMag := Magnitudes(spec)[k]
	if math.Abs(g-fftMag) > 1e-6*fftMag {
		t.Errorf("Goertzel = %g, FFT bin = %g", g, fftMag)
	}
}

func TestGoertzelDetectsPresentTone(t *testing.T) {
	const sampleRate = 44100.0
	x := sine(700, sampleRate, 2048)
	present := Goertzel(x, 700, sampleRate)
	absent := Goertzel(x, 1500, sampleRate)
	if present < 10*absent {
		t.Errorf("present tone %g should dominate absent %g", present, absent)
	}
}

func TestGoertzelDiscriminates20Hz(t *testing.T) {
	// The paper's claim: ~20 Hz spacing suffices to tell tones apart.
	const sampleRate = 44100.0
	// 100 ms window gives 10 Hz resolution.
	n := int(0.1 * sampleRate)
	x := sine(1000, sampleRate, n)
	at1000 := Goertzel(x, 1000, sampleRate)
	at1020 := Goertzel(x, 1020, sampleRate)
	if at1000 < 3*at1020 {
		t.Errorf("tone at 1000 Hz (%g) should be well above response at 1020 Hz (%g)", at1000, at1020)
	}
}

func TestGoertzelEmptyAndInvalid(t *testing.T) {
	if Goertzel(nil, 440, 44100) != 0 {
		t.Error("nil samples should give 0")
	}
	if Goertzel([]float64{1, 2}, 440, 0) != 0 {
		t.Error("zero sample rate should give 0")
	}
}

func TestGoertzelBankOrder(t *testing.T) {
	const sampleRate = 44100.0
	x := sine(600, sampleRate, 4096)
	freqs := []float64{500, 600, 700}
	mags := GoertzelBank(x, freqs, sampleRate)
	if len(mags) != 3 {
		t.Fatalf("len = %d, want 3", len(mags))
	}
	if mags[1] < mags[0] || mags[1] < mags[2] {
		t.Errorf("bank should peak at 600 Hz: %v", mags)
	}
}

func TestGoertzelPowerUnitAmplitude(t *testing.T) {
	const sampleRate = 44100.0
	x := sine(441, sampleRate, 44100) // 1 s, bin-aligned at 1 Hz resolution
	p := GoertzelPower(x, 441, sampleRate)
	if math.Abs(p-0.5) > 0.05 {
		t.Errorf("unit sine power = %g, want ~0.5", p)
	}
	if GoertzelPower(nil, 441, sampleRate) != 0 {
		t.Error("empty input should give 0")
	}
}

// referenceResonate is the sample-major Goertzel loop: every resonator
// steps once per sample, one after another. resonate must match it bit
// for bit; it stays here as the oracle.
func referenceResonate(coeff, s1, s2, samples []float64) {
	for _, x := range samples {
		for j, c := range coeff {
			s0 := x + c*s1[j] - s2[j]
			s2[j] = s1[j]
			s1[j] = s0
		}
	}
}

func TestResonateMatchesSampleMajorLoop(t *testing.T) {
	const rate = 44100.0
	signal := streamTestSignal(1000, rate)
	// Uneven segments: empty, single samples, odd and even lengths, so
	// state is carried across calls at every parity.
	cuts := []int{0, 0, 1, 2, 97, 300, 600, len(signal)}
	for nf := 0; nf <= 33; nf++ {
		coeff := make([]float64, nf)
		for j := range coeff {
			coeff[j] = 2 * math.Cos(2*math.Pi*(300+97.3*float64(j))/rate)
		}
		want1, want2 := make([]float64, nf), make([]float64, nf)
		got1, got2 := make([]float64, nf), make([]float64, nf)
		referenceResonate(coeff, want1, want2, signal)
		for k := 1; k < len(cuts); k++ {
			resonate(coeff, got1, got2, signal[cuts[k-1]:cuts[k]])
		}
		for j := range coeff {
			if got1[j] != want1[j] || got2[j] != want2[j] {
				t.Fatalf("%d resonators, lane %d: state (%v, %v), reference (%v, %v)",
					nf, j, got1[j], got2[j], want1[j], want2[j])
			}
		}
	}
}

func BenchmarkGoertzelKernel(b *testing.B) {
	const rate = 44100.0
	for _, nf := range []int{6, 25, 130} {
		coeff := make([]float64, nf)
		for j := range coeff {
			coeff[j] = 2 * math.Cos(2*math.Pi*(300+97.3*float64(j))/rate)
		}
		s1, s2 := make([]float64, nf), make([]float64, nf)
		for _, ns := range []int{441, 2205} {
			samples := streamTestSignal(ns, rate)
			for _, k := range []struct {
				name string
				run  func(coeff, s1, s2, samples []float64)
			}{{"resonate", resonate}, {"reference", referenceResonate}} {
				b.Run(fmt.Sprintf("tones=%d/samples=%d/%s", nf, ns, k.name), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						clear(s1)
						clear(s2)
						k.run(coeff, s1, s2, samples)
					}
				})
			}
		}
	}
}
