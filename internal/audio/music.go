package audio

import "math/rand"

// Song generates the structured musical interference the paper uses as
// "random background noise" (Sia's Cheap Thrills playing in the room
// during the telemetry experiments of Figure 4b/4d). What matters for
// the reproduction is that the interference is tempo-locked,
// polyphonic, non-stationary and occupies the same 200 Hz–4 kHz band
// as the MDN tones — unlike white noise, which detectors reject almost
// for free.
type Song struct {
	// BPM is the tempo in beats per minute. Cheap Thrills is 90 BPM.
	BPM float64
	// Level is the peak amplitude of the rendered song.
	Level float64
	// Seed drives the pseudo-random melodic walk.
	Seed int64
}

// PopSong returns the default interference source: a 90 BPM pop
// arrangement at the given peak level.
func PopSong(level float64, seed int64) Song {
	return Song{BPM: 90, Level: level, Seed: seed}
}

// pentatonic scale degrees (semitones above the root) used by the
// melodic walk; a major pentatonic avoids harsh dissonance, like a pop
// chorus.
var pentatonic = []int{0, 2, 4, 7, 9}

// chordProgression is a I–V–vi–IV loop (in semitones above the song
// root), the canonical four-chord pop progression.
var chordProgression = [][]int{
	{0, 4, 7},   // I
	{7, 11, 14}, // V
	{9, 12, 16}, // vi
	{5, 9, 12},  // IV
}

func noteHz(rootHz float64, semitones int) float64 {
	return rootHz * pow2(float64(semitones)/12)
}

func pow2(x float64) float64 {
	// math.Exp2 without importing math twice in doc examples.
	return exp2(x)
}

// Render synthesizes d seconds of the song at the given sample rate.
// The arrangement has three voices: a bass line on the chord root, a
// mid-range chord pad, and a melodic lead doing a seeded random walk
// over the pentatonic scale, plus a percussive noise burst on each
// beat. Output is normalised to the song's Level.
func (s Song) Render(sampleRate, d float64) *Buffer {
	out := NewBuffer(sampleRate, d)
	if len(out.Samples) == 0 {
		return out
	}
	rng := rand.New(rand.NewSource(s.Seed))
	bpm := s.BPM
	if bpm <= 0 {
		bpm = 90
	}
	beat := 60 / bpm // seconds per beat
	const rootHz = 220.0
	melodyIdx := 2

	for t := 0.0; t < d; t += beat {
		beatNo := int(t / beat)
		chord := chordProgression[(beatNo/4)%len(chordProgression)]

		// Bass: root an octave down, one note per beat.
		bass := Tone{Frequency: noteHz(rootHz/2, chord[0]), Duration: beat * 0.9, Amplitude: 0.8}
		bass.MixEnvelopeAt(out, t, DefaultEnvelope)

		// Pad: full triad, sustained.
		for _, deg := range chord {
			pad := Tone{Frequency: noteHz(rootHz, deg), Duration: beat, Amplitude: 0.25,
				Phase: rng.Float64() * 6.28}
			pad.MixEnvelopeAt(out, t, DefaultEnvelope)
		}

		// Lead: two eighth-note pentatonic steps per beat.
		for eighth := 0; eighth < 2; eighth++ {
			melodyIdx += rng.Intn(3) - 1
			if melodyIdx < 0 {
				melodyIdx = 0
			}
			if melodyIdx >= len(pentatonic)*2 {
				melodyIdx = len(pentatonic)*2 - 1
			}
			deg := pentatonic[melodyIdx%len(pentatonic)] + 12*(melodyIdx/len(pentatonic))
			lead := Tone{Frequency: noteHz(rootHz*2, deg), Duration: beat / 2 * 0.8, Amplitude: 0.5}
			lead.MixEnvelopeAt(out, t+float64(eighth)*beat/2, DefaultEnvelope)
		}

		// Percussion: a short noise burst on the beat (kick/snare feel).
		burst := WhiteNoise(sampleRate, 0.03, 0.5, s.Seed+int64(beatNo))
		out.MixAt(burst, t, 1)
	}
	level := s.Level
	if level <= 0 {
		level = 0.5
	}
	return out.Normalize(level)
}
