package main

import (
	"bytes"
	"math"
	"math/rand"

	"mdn/internal/acoustic"
	"mdn/internal/core"
	"mdn/internal/modem"
	"mdn/internal/mp"
)

// buildModemLink sends Reed-Solomon (48 parity bytes) frames of seeded
// payloads one after another over the acoustic modem, with 5% of the
// body symbols corrupted by a seeded Corruptor, to a receiver fed by
// batch 50 ms windows. There is no data traffic and, as in the
// repository's modem sweep, no ambient noise: under office ambience the
// unprotected frame header of the first frame fails now and then
// (README.md, "Findings").
func buildModemLink(seed int64, v variant, tr *tracer) (*world, error) {
	frames := 8
	if v.tiny {
		frames = 1
	}
	rng := rand.New(rand.NewSource(seed))
	cfg := modem.DefaultConfig()
	cfg.FEC = modem.FECRS{Parity: 48}
	band, err := modem.NewBand(modem.Plan(cfg), "s1", cfg)
	if err != nil {
		return nil, err
	}
	const payloadLen = 32
	// Each frame starts within the first quarter of a capture window,
	// at a seeded offset (README.md, "Findings").
	start := 0.5 + windowS/4*rng.Float64()
	w := newWorld(seed, tr, 0, 0)
	sp := w.room.AddSpeaker("s1", acoustic.Position{X: 1})
	voice := core.NewVoice(w.sim, mp.NewSounder(mp.NewPi(w.sim, sp, 0.002)))
	w.voices = append(w.voices, voice)
	w.emitters["s1"] = true

	w.ctrl = core.NewController(w.sim, w.mics[0], core.NewDetector(core.MethodGoertzel, band.Frequencies()))
	tx := modem.NewTransmitter(w.sim, band, voice)
	tx.Corruptor = modem.NewCorruptor(0.05, rng.Int63())
	rx := modem.NewReceiver(band)
	w.dispatchPre()
	w.ctrl.SubscribeWindowsNamed("modem", w.timed("modem.rx", rx.HandleWindow))
	w.dispatchPost()
	w.subscribeRecorder()
	w.startReplay()
	w.ctrl.Start(0)

	sent := make([][]byte, frames)
	at := start
	for f := range sent {
		sent[f] = make([]byte, payloadLen)
		rng.Read(sent[f])
		end, err := tx.Send(at, sent[f])
		if err != nil {
			return nil, err
		}
		at = windowS*math.Ceil(end/windowS) + windowS/4*rng.Float64()
	}
	w.duration = windowS * float64(int((at+0.5)/windowS)+1)

	w.finish = func(r *roundResult) {
		got := make(map[byte][]byte, len(rx.Frames))
		for _, f := range rx.Frames {
			got[f.Seq] = f.Payload
			r.note(f.Time)
		}
		if v.corrupt {
			sent[0] = append([]byte(nil), sent[0]...)
			sent[0][0] ^= 0xff
		}
		for i, p := range sent {
			r.expect(bytes.Equal(got[byte(i)], p), "frame %d not delivered intact (rx %d hdr %d crc %d fec %d corr %d corrupted %d)", i, rx.FramesRx, rx.HeaderFailures, rx.CRCFailures, rx.FECFailures, rx.FECCorrected, tx.SymbolsCorrupted)
		}
		r.goodput = rx.GoodputBps()
		c := r.counts
		c["modem.frames_sent"] = float64(tx.FramesTx)
		c["modem.frames_ok"] = float64(rx.FramesRx)
		c["modem.symbols_corrected"] = float64(rx.FECCorrected)
		c["modem.crc_fail"] = float64(rx.CRCFailures)
		c["core.app_events"] = float64(rx.FramesRx)
	}
	return w, nil
}
