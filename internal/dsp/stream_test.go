package dsp

import (
	"math"
	"testing"
)

// streamTestSignal synthesizes a deterministic multi-tone signal with a
// pseudo-noise floor: two MDN-ish tones (not bin-aligned) plus an LCG
// noise stream, so resonator states take non-trivial values in every
// window.
func streamTestSignal(n int, rate float64) []float64 {
	s := make([]float64, n)
	lcg := uint64(0x9e3779b97f4a7c15)
	for i := range s {
		t := float64(i) / rate
		lcg = lcg*6364136223846793005 + 1442695040888963407
		noise := (float64(lcg>>11)/float64(1<<53) - 0.5) * 0.01
		s[i] = 0.2*math.Sin(2*math.Pi*1017*t) +
			0.05*math.Sin(2*math.Pi*2531*t+0.7) + noise
	}
	return s
}

// watchTones returns n distinct, non-bin-aligned test frequencies.
func watchTones(n int) []float64 {
	f := make([]float64, n)
	for j := range f {
		f[j] = 400 + 61.7*float64(j)
	}
	return f
}

func TestSlidingGoertzelBitExactWithBatch(t *testing.T) {
	const (
		rate    = 44100.0
		windowN = 2205
	)
	watches := [][]float64{{1017, 2531, 3700}}
	for _, n := range []int{1, 6, 8, 9, 25, 130} {
		watches = append(watches, watchTones(n))
	}
	signal := streamTestSignal(windowN*6, rate)
	for _, freqs := range watches {
		for _, hopN := range []int{441, 735, windowN} {
			// Hop-sized chunks first, then chunks that straddle hop
			// boundaries so Process splits them mid-call.
			for _, chunk := range []int{hopN, 1, 97, hopN + 3} {
				sg := NewSlidingGoertzel(freqs, rate, windowN, hopN)
				batch := NewGoertzelPlan(freqs, rate)
				var ref []float64
				win := 0
				// Window w covers samples [w*hopN, w*hopN+windowN) and
				// must match the batch plan over exactly those samples,
				// float for float.
				for off := 0; off < len(signal); off += chunk {
					sg.Process(signal[off:min(off+chunk, len(signal))], func(mags []float64) {
						start := win * hopN
						ref = batch.MagnitudesInto(ref, signal[start:start+windowN])
						for j := range mags {
							if mags[j] != ref[j] {
								t.Fatalf("%d tones hopN=%d chunk=%d window %d freq %g: sliding %v != batch %v",
									len(freqs), hopN, chunk, win, freqs[j], mags[j], ref[j])
							}
						}
						win++
					})
				}
				wantWins := (len(signal) - windowN) / hopN
				if win != wantWins+1 {
					t.Errorf("%d tones hopN=%d chunk=%d emitted %d windows, want %d",
						len(freqs), hopN, chunk, win, wantWins+1)
				}
			}
		}
	}
}

func TestSlidingGoertzelResetRestartsStagger(t *testing.T) {
	const rate, windowN, hopN = 44100.0, 2205, 441
	freqs := []float64{1017}
	signal := streamTestSignal(windowN*2, rate)
	sg := NewSlidingGoertzel(freqs, rate, windowN, hopN)
	first := math.NaN()
	sg.Process(signal[:windowN], func(m []float64) { first = m[0] })
	sg.Reset()
	again := math.NaN()
	sg.Process(signal[:windowN], func(m []float64) { again = m[0] })
	if first != again || math.IsNaN(first) {
		t.Fatalf("post-Reset window %v != first window %v", again, first)
	}
}

func TestSlidingGoertzelMisalignedHopPanics(t *testing.T) {
	for _, bad := range []struct{ windowN, hopN int }{
		{2205, 440}, // does not divide
		{2205, 0},
		{2205, -441},
		{0, 441},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("windowN=%d hopN=%d did not panic", bad.windowN, bad.hopN)
				}
			}()
			NewSlidingGoertzel([]float64{1000}, 44100, bad.windowN, bad.hopN)
		}()
	}
}

func TestSlidingGoertzelProcessAllocs(t *testing.T) {
	const rate, windowN, hopN = 44100.0, 2205, 441
	sg := NewSlidingGoertzel([]float64{1017, 2531}, rate, windowN, hopN)
	signal := streamTestSignal(hopN, rate)
	emit := func([]float64) {}
	sg.Process(signal, emit) // warm up
	if got := testing.AllocsPerRun(200, func() { sg.Process(signal, emit) }); got != 0 {
		t.Errorf("Process allocates %g/op, want 0", got)
	}
}

func TestOverlapSTFTBitExactWithBatch(t *testing.T) {
	const (
		rate    = 44100.0
		windowN = 2205
		hopN    = 441
	)
	signal := streamTestSignal(windowN*4, rate)
	o := NewOverlapSTFT(windowN)
	plan := PlanFFT(NextPowerOfTwo(windowN))
	var ref []float64
	var scr FFTScratch
	frames := 0
	for off := 0; off+hopN <= len(signal); off += hopN {
		o.Append(signal[off : off+hopN])
		if !o.Full() {
			continue
		}
		got := o.Spectrum(Hann)
		winStart := off + hopN - windowN
		ref = plan.WindowedSpectrumScratch(ref, signal[winStart:winStart+windowN], Hann, &scr)
		if len(got) != len(ref) {
			t.Fatalf("spectrum length %d != batch %d", len(got), len(ref))
		}
		for k := range got {
			if got[k] != ref[k] {
				t.Fatalf("frame at sample %d bin %d: streaming %v != batch %v",
					winStart, k, got[k], ref[k])
			}
		}
		frames++
	}
	if want := (len(signal)-windowN)/hopN + 1; frames != want {
		t.Errorf("computed %d frames, want %d", frames, want)
	}
}

func TestOverlapSTFTAppendOversizedKeepsNewest(t *testing.T) {
	const windowN = 8
	o := NewOverlapSTFT(windowN)
	long := make([]float64, 3*windowN)
	for i := range long {
		long[i] = float64(i)
	}
	o.Append(long)
	if !o.Full() {
		t.Fatal("oversized append did not fill the ring")
	}
	win := o.Window()
	for i, x := range win {
		if want := float64(len(long) - windowN + i); x != want {
			t.Fatalf("window[%d] = %g, want %g (newest %d samples)", i, x, want, windowN)
		}
	}
}

func TestOverlapSTFTSpectrumAllocs(t *testing.T) {
	const rate, windowN, hopN = 44100.0, 2205, 441
	o := NewOverlapSTFT(windowN)
	signal := streamTestSignal(windowN, rate)
	o.Append(signal)
	o.Spectrum(Hann) // warm up scratch
	hop := signal[:hopN]
	if got := testing.AllocsPerRun(100, func() {
		o.Append(hop)
		o.Spectrum(Hann)
	}); got != 0 {
		t.Errorf("Append+Spectrum allocates %g/op, want 0", got)
	}
}
