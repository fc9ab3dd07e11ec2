package scenario

import (
	"fmt"
	"strings"

	"mdn/internal/acoustic"
	"mdn/internal/core"
	"mdn/internal/modem"
	"mdn/internal/mp"
	"mdn/internal/netsim"
	"mdn/internal/parallel"
	"mdn/internal/telemetry"
)

// chaosModem runs the acoustic data channel through the chaos
// harness's faulty wire: frames of Reed-Solomon-coded payload ride
// the same MP hop the control pipelines use, so message drops become
// symbol erasures and bit flips become wrong tones. Ground truth is
// frames sent; detection is CRC-verified frames delivered.
func chaosModem(reg *telemetry.Registry, faults netsim.Faults, dur, streamHop float64) ChaosPoint {
	e := newChaosEnv(reg, faults, streamHop)
	cfg := modem.DefaultConfig()
	cfg.FEC = modem.FECRS{Parity: modem.DefaultRSParity}
	// The modem's 130 guard-banded tones outgrow the shared default
	// plan; the channel brings its own spectrum.
	band, err := modem.NewBand(modem.Plan(cfg), "s1", cfg)
	if err != nil {
		return ChaosPoint{Notes: "setup failed: " + err.Error()}
	}
	tx := modem.NewTransmitter(e.sim, band, e.voice)
	rx := modem.NewReceiver(band)
	tx.Instrument(e.reg, "s1")
	rx.Instrument(e.reg, "s1")
	e.ctrl.Detector.AddWatch(band.Frequencies()...)
	e.ctrl.SubscribeWindowsNamed("modem", rx.HandleWindow)
	e.addCanary()
	e.start()

	payload := make([]byte, 32)
	for i := range payload {
		payload[i] = byte(i * 11)
	}
	frames := 0
	at := 1.0
	for {
		end, err := tx.Send(at, payload)
		if err != nil {
			return ChaosPoint{Notes: "send failed: " + err.Error()}
		}
		if end+0.3 > dur {
			break
		}
		frames++
		at = end
	}

	var pt ChaosPoint
	pt.GroundTruth = frames
	e.finish(dur, &pt)
	pt.Detected = int(rx.FramesRx)
	if pt.Detected > frames {
		// The last, uncounted frame straddling the horizon delivered
		// anyway; clamp so recall stays a ratio of offered frames.
		pt.Detected = frames
	}
	pt.Notes = fmt.Sprintf("fec=%s goodput=%.0fb/s corrected=%d crcfail=%d fecfail=%d hdrfail=%d",
		cfg.FEC.Name(), rx.GoodputBps(), rx.FECCorrected,
		rx.CRCFailures, rx.FECFailures, rx.HeaderFailures)
	return pt
}

// ModemSweepConfig parameterises a modem corruption sweep: a grid of
// FEC schemes × seeded symbol-corruption rates on an otherwise clean
// wire, measuring how each scheme's delivery degrades.
type ModemSweepConfig struct {
	// Seed drives every stochastic component; per-point corruptor
	// streams derive from it and the grid position.
	Seed int64 `json:"seed"`
	// FECs are the scheme names to sweep (default none, hamming7_4,
	// rs_p48; see modem.FECByName).
	FECs []string `json:"fecs,omitempty"`
	// CorruptRates are the per-symbol corruption probabilities to
	// sweep (default 0, 0.02, 0.05, 0.10).
	CorruptRates []float64 `json:"corrupt_rates,omitempty"`
	// Frames is how many frames each point sends (default 6).
	Frames int `json:"frames,omitempty"`
	// PayloadBytes is the payload size per frame (default 64).
	PayloadBytes int `json:"payload_bytes,omitempty"`
	// StreamHop, when positive, receives on the streaming detection
	// path with this hop (see core.Controller.StartStream).
	StreamHop float64 `json:"stream_hop,omitempty"`
	// Workers bounds the sweep's worker pool (<= 0 means GOMAXPROCS).
	// The report is byte-identical at every worker count.
	Workers int `json:"workers,omitempty"`
}

// ModemSweepPoint is one (FEC, corruption rate) measurement.
type ModemSweepPoint struct {
	FEC         string  `json:"fec"`
	CorruptRate float64 `json:"corrupt_rate"`
	// FramesTx/FramesRx are frames offered and CRC-verified frames
	// delivered; Recovered is their ratio.
	FramesTx  uint64  `json:"frames_tx"`
	FramesRx  uint64  `json:"frames_rx"`
	Recovered float64 `json:"recovered"`
	// SymbolsCorrupted counts the corruptor's hits; FECCorrected the
	// symbol repairs the FEC reported.
	SymbolsCorrupted uint64 `json:"symbols_corrupted"`
	FECCorrected     uint64 `json:"fec_corrected"`
	// Failure counters, by layer.
	HeaderFailures uint64 `json:"header_failures"`
	CRCFailures    uint64 `json:"crc_failures"`
	FECFailures    uint64 `json:"fec_failures"`
	// GoodputBps is delivered payload bits per simulated second.
	GoodputBps float64 `json:"goodput_bps"`
}

// ModemSweepReport is a full corruption sweep.
type ModemSweepReport struct {
	Seed   int64             `json:"seed"`
	Points []ModemSweepPoint `json:"points"`
}

// RunModemSweep executes the FEC × corruption grid. Each point owns
// its whole world — simulation, room, controller, corruptor — with
// every stochastic stream derived from the seed and the grid
// position, so the report is byte-identical at any worker count.
func RunModemSweep(cfg ModemSweepConfig) (*ModemSweepReport, error) {
	fecs := cfg.FECs
	if len(fecs) == 0 {
		fecs = []string{"none", "hamming7_4", "rs_p48"}
	}
	rates := cfg.CorruptRates
	if len(rates) == 0 {
		rates = []float64{0, 0.02, 0.05, 0.10}
	}
	frames := cfg.Frames
	if frames <= 0 {
		frames = 6
	}
	size := cfg.PayloadBytes
	if size <= 0 {
		size = 64
	}
	// Validate the grid up front.
	schemes := make([]modem.FEC, len(fecs))
	for i, name := range fecs {
		fec, err := modem.FECByName(name)
		if err != nil {
			return nil, err
		}
		schemes[i] = fec
	}
	for _, r := range rates {
		if r < 0 || r > 1 {
			return nil, fmt.Errorf("scenario: modem corrupt rate %g outside [0, 1]", r)
		}
	}
	if err := checkGrid("modem", len(fecs), len(rates)); err != nil {
		return nil, err
	}
	if cfg.StreamHop > 0 {
		if err := core.CheckStreamHop(core.DefaultWindow, 44100, cfg.StreamHop); err != nil {
			return nil, fmt.Errorf("scenario: stream_hop: %w", err)
		}
	}

	type gridCell struct{ fi, ri int }
	cells := make([]gridCell, 0, len(fecs)*len(rates))
	for fi := range fecs {
		for ri := range rates {
			cells = append(cells, gridCell{fi, ri})
		}
	}
	rep := &ModemSweepReport{Seed: cfg.Seed, Points: make([]ModemSweepPoint, len(cells))}
	parallel.ForEach(len(cells), parallel.Workers(cfg.Workers), func(i int) {
		c := cells[i]
		seed := gridSeed(cfg.Seed, c.fi, c.ri)
		rep.Points[i] = runModemPoint(schemes[c.fi], rates[c.ri], frames, size, seed, cfg.StreamHop)
		rep.Points[i].FEC = fecs[c.fi]
		rep.Points[i].CorruptRate = rates[c.ri]
	})
	return rep, nil
}

// runModemPoint measures one (FEC, corruption rate) cell on a clean
// wire: the corruptor attacks payload symbols at schedule time.
func runModemPoint(fec modem.FEC, rate float64, frames, size int, seed int64, streamHop float64) ModemSweepPoint {
	sim := netsim.NewSim()
	room := acoustic.NewRoom(44100, seed)
	room.CullThreshold = acoustic.CullAuto
	mic := room.AddMicrophone("controller", acoustic.Position{}, 0.0005)
	sp := room.AddSpeaker("s1", acoustic.Position{X: 1})
	voice := core.NewVoice(sim, mp.NewSounder(mp.NewPi(sim, sp, 0.002)))

	mcfg := modem.DefaultConfig()
	mcfg.FEC = fec
	band, err := modem.NewBand(modem.Plan(mcfg), "s1", mcfg)
	if err != nil {
		return ModemSweepPoint{}
	}
	ctrl := core.NewController(sim, mic, core.NewDetector(core.MethodGoertzel, band.Frequencies()))
	ctrl.Retention = 2
	tx := modem.NewTransmitter(sim, band, voice)
	tx.Corruptor = modem.NewCorruptor(rate, seed+1)
	rx := modem.NewReceiver(band)
	ctrl.SubscribeWindows(rx.HandleWindow)
	if streamHop > 0 {
		ctrl.StartStream(0, streamHop)
	} else {
		ctrl.Start(0)
	}

	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i*13 + 7)
	}
	at := 0.5
	for f := 0; f < frames; f++ {
		end, err := tx.Send(at, payload)
		if err != nil {
			return ModemSweepPoint{}
		}
		at = end
	}
	sim.RunUntil(at + 0.5)

	pt := ModemSweepPoint{
		FramesTx:         tx.FramesTx,
		FramesRx:         rx.FramesRx,
		SymbolsCorrupted: tx.SymbolsCorrupted,
		FECCorrected:     rx.FECCorrected,
		HeaderFailures:   rx.HeaderFailures,
		CRCFailures:      rx.CRCFailures,
		FECFailures:      rx.FECFailures,
		GoodputBps:       rx.GoodputBps(),
	}
	if pt.FramesTx > 0 {
		pt.Recovered = float64(pt.FramesRx) / float64(pt.FramesTx)
	}
	return pt
}

// Table renders the sweep as a fixed-width recovery table.
func (r *ModemSweepReport) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "modem corruption sweep: seed=%d\n", r.Seed)
	fmt.Fprintf(&b, "%-12s %8s  %5s %9s  %9s %9s  %8s %8s %8s\n",
		"fec", "corrupt", "recov", "tx/rx", "corrupted", "repaired", "hdrfail", "crcfail", "fecfail")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-12s %7.0f%%  %4.0f%% %5d/%-3d  %9d %9d  %8d %8d %8d\n",
			p.FEC, 100*p.CorruptRate, 100*p.Recovered, p.FramesTx, p.FramesRx,
			p.SymbolsCorrupted, p.FECCorrected, p.HeaderFailures, p.CRCFailures, p.FECFailures)
	}
	return b.String()
}
