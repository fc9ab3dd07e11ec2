package core

import (
	"fmt"
	"math"

	"mdn/internal/acoustic"
	"mdn/internal/dsp"
	"mdn/internal/netsim"
	"mdn/internal/parallel"
	"mdn/internal/telemetry"
)

// StreamController is the controller's low-latency detection path: it
// advances the analysis window by a hop — a fraction of the window —
// instead of a whole window at a time, so a watched tone is detected
// within one hop of its onset rather than at the close of the window
// it lands in. Both teleorchestra papers (arXiv 1808.09399,
// 1809.07864) argue SDN+audio control loops live or die on exactly
// this delay.
//
// Every microphone slot of the controller's Fleet holds a streaming
// pipe, and the fleet's fan-out runs them — serially, or on its worker
// pool over shards of the active list:
//
//	capture   — acoustic.CaptureRing renders only the new hop span
//	            (the window-minus-hop overlap is saved, not re-mixed)
//	            and publishes the hop frame to an SPSC queue;
//	transform — dsp.SlidingGoertzel (staggered resonator banks, no
//	            sample retention) or dsp.OverlapSTFT (overlap-save
//	            ring + cached FFT plan) consumes frames and emits one
//	            full-window amplitude vector per hop into the fleet's
//	            per-microphone stage (floor, filter, device monitor)
//	            and merge — the same stage and merge as the batch path.
//
// In the simulation each hop pushes one frame and drains it at once,
// so results are reproducible; the lock-free, allocation-free queue is
// what lets a real deployment move capture onto its own producer
// thread without restructuring.
//
// Equivalence contract: at hop == window the streaming path is
// bit-exact with the batch path — same capture spans (hence identical
// samples, including the self-noise stream, which is seeded by the
// window start), same per-window transform (the sliding kernels
// reproduce their batch counterparts' float operations exactly), same
// per-microphone stage and merge, same subscriber dispatch, same
// health and counter updates. At hop < window the per-window spans
// differ by construction, so equivalence is behavioural (same tones
// detected, sooner), not bit-level.
//
// On top of the per-window batches the stream runs an EdgeDedup over
// the pre-threshold amplitudes: a tone straddling any number of hop
// windows is one onset, reported through OnOnset and the
// mdn_stream_detect_latency_seconds histogram (sim-time latency from
// the emission's arrival at the microphone to the firing hop close).
//
// A watch-list edit (an AddWatch, or a device re-key) rebuilds every
// pipe's transform in place at the next hop; the rebuilt pipes
// re-prime over one window, and the StreamController carries on.
type StreamController struct {
	// OnOnset, when set, receives each deduplicated tone onset: the
	// first hop window in which the frequency's amplitude reached the
	// detection threshold, after silence. Detection.Time is the hop
	// close (detection time, not window start). It is called on the
	// simulation goroutine, outside the supervision barrier.
	OnOnset func(Detection)

	ctrl   *Controller
	hop    float64 // hop duration, seconds
	window float64 // analysis window, seconds (ctrl.Window at start)

	snap   *Detector // the fleet watch snapshot peak and dedup are sized for
	peak   []float64 // per-frequency max amplitude across pipes, per hop
	dedup  *EdgeDedup
	ticker *netsim.Ticker

	// Hops counts processed hop steps; Onsets counts deduplicated tone
	// onsets; CaptureErrors counts hops abandoned because the capture
	// span had been compacted away (acoustic.ErrCompacted).
	Hops          uint64
	Onsets        uint64
	CaptureErrors uint64

	tm streamMetrics
}

// hopGeom is the streaming pipes' shared geometry.
type hopGeom struct {
	window  float64 // analysis window, seconds
	rate    float64 // sample rate, Hz
	windowN int
	hopN    int
}

// streamPipe is one microphone's capture → transform lane. Exactly one
// of sg/stft is set, by detection method, once the pipe is built from
// the fleet's watch snapshot.
type streamPipe struct {
	ring *acoustic.CaptureRing
	q    *parallel.SPSC[hopFrame]
	pool [][]float64 // frame sample buffers, one per queue slot
	seq  int

	snap  *Detector // the watch snapshot the transform was built from
	sg    *dsp.SlidingGoertzel
	stft  *dsp.OverlapSTFT
	emit  func(mags []float64) // preallocated SlidingGoertzel callback
	curTo float64              // hop close of the frame being transformed

	amps    []float64 // per-watch amplitude estimates of the last window
	emitted bool      // a full window completed this hop
	err     error     // this hop's capture error, if any
}

// hopFrame is one captured hop span in flight between the capture and
// transform stages. samples points into the pipe's frame pool; the
// slot is safe to reuse once the frame is popped (pool size == queue
// capacity, so the producer cannot lap the consumer).
type hopFrame struct {
	from, to float64
	samples  []float64
}

// streamQueueCap bounds in-flight hop frames per pipe. The synchronous
// sim drains every hop so depth never exceeds one; the headroom is for
// deployments that run capture on its own goroutine.
const streamQueueCap = 4

// StartStream begins streaming analysis at time at with the given hop,
// replacing any running batch poll loop. The hop must subdivide the
// controller's Window into an integer number of integer-sample hops
// (e.g. 10 ms hops of a 50 ms window at 44.1 kHz); StartStream panics
// otherwise, because a misaligned hop is a deployment wiring error.
// hop == Window is valid and reproduces the batch path exactly.
//
// Subscribers registered on the controller receive one batch per hop
// (each covering the trailing full window) once the first window has
// filled; the controller's counters and Health reflect the streamed
// windows. Every microphone of the controller's fleet is streamed.
// Call Stop on the returned StreamController (or on the controller)
// to halt.
func (c *Controller) StartStream(at, hop float64) *StreamController {
	rate := c.mic.Room().SampleRate
	if err := CheckStreamHop(c.Window, rate, hop); err != nil {
		panic(err.Error())
	}
	if c.ticker != nil {
		c.ticker.Stop()
		c.ticker = nil
	}
	if c.stream != nil {
		c.stream.Stop()
	}
	c.fleet.startStream(hopGeom{
		window:  c.Window,
		rate:    rate,
		windowN: int(math.Round(c.Window * rate)),
		hopN:    int(math.Round(hop * rate)),
	})
	s := &StreamController{ctrl: c, hop: hop, window: c.Window}
	if c.tm.reg != nil {
		s.Instrument(c.tm.reg)
	}
	c.stream = s
	c.started = true
	c.health.lastWindowEnd = at
	s.ticker = c.sim.Every(at+hop, hop, func(now float64) {
		s.step(now-s.hop, now)
	})
	return s
}

// Stream returns the controller's streaming pipeline, or nil when the
// controller is on the batch path.
func (c *Controller) Stream() *StreamController { return c.stream }

// CheckStreamHop reports whether hop is a valid streaming hop for the
// given analysis window and sample rate: positive, a whole number of
// samples, and an exact subdivision of the window. Configuration
// surfaces (scenario files, CLI flags) call it to reject a bad hop up
// front; StartStream enforces the same rule by panicking. At 44.1 kHz
// with the default 50 ms window (2205 samples) the usable hops are the
// divisors of 2205 samples — e.g. 10 ms (441), 1/3 window (735), or
// the window itself.
func CheckStreamHop(window, sampleRate, hop float64) error {
	windowN := int(math.Round(window * sampleRate))
	hopN := int(math.Round(hop * sampleRate))
	if hopN <= 0 || windowN <= 0 || windowN%hopN != 0 ||
		math.Abs(float64(hopN)-hop*sampleRate) > 1e-6 {
		return fmt.Errorf(
			"core: stream hop %g s is not an integer-sample divisor of window %g s at %g Hz",
			hop, window, sampleRate)
	}
	return nil
}

// startStream gives every microphone slot a fresh streaming pipe of
// geometry g. Transforms are built from the watch snapshot at each
// pipe's first hop.
func (f *Fleet) startStream(g hopGeom) {
	f.geom = g
	f.pipes = f.pipes[:0]
	for i := range f.mics {
		f.pipes = append(f.pipes, newStreamPipe(f, i))
	}
}

// newStreamPipe builds microphone i's capture lane.
func newStreamPipe(f *Fleet, i int) *streamPipe {
	p := &streamPipe{
		ring: acoustic.NewCaptureRing(f.mics[i], f.geom.windowN),
		q:    parallel.NewSPSC[hopFrame](streamQueueCap),
	}
	for k := 0; k < p.q.Cap(); k++ {
		p.pool = append(p.pool, make([]float64, f.geom.hopN))
	}
	// Preallocated emission callback: built once so the per-hop
	// transform stage creates no closures.
	p.emit = func(mags []float64) {
		scale := 2 / float64(f.geom.windowN)
		for k, m := range mags {
			p.amps[k] = m * scale
		}
		p.finishWindow(f, i)
	}
	return p
}

// build (re)builds the pipe's transform from the fleet's watch
// snapshot and re-primes it: a new pipe, or every pipe after the watch
// list moved.
func (p *streamPipe) build(f *Fleet) {
	p.snap = f.snap
	watch := f.snap.watch
	p.amps = make([]float64, len(watch))
	p.sg, p.stft = nil, nil
	if f.snap.Method == MethodFFT {
		p.stft = dsp.NewOverlapSTFT(f.geom.windowN)
	} else {
		p.sg = dsp.NewSlidingGoertzel(watch, f.geom.rate, f.geom.windowN, f.geom.hopN)
	}
	p.reset()
}

// hop is microphone i's streaming transform for the in-flight fan-out:
// capture the hop, then advance the sliding transform; each completed
// window goes through the fleet's per-microphone stage. A pipe that
// completes no window leaves an empty result slot.
func (p *streamPipe) hop(f *Fleet, i int) {
	if p.snap != f.snap {
		p.build(f)
	}
	p.emitted = false
	f.out[i] = f.out[i][:0]
	if p.err = p.capture(f.from, f.to); p.err != nil {
		return
	}
	p.drain(f, i)
}

// step advances the stream by one hop: the fleet runs every active
// pipe and merges their windows; the stream folds per-frequency peaks,
// runs the onset dedup, and dispatches. It runs on the simulation
// goroutine once per hop.
func (s *StreamController) step(from, to float64) {
	sp := telemetry.StartSpan(s.tm.hopWall, s.tm.wall)
	s.Hops++
	s.tm.hops.Inc()
	f := s.ctrl.fleet
	dets, err := f.hop(from, to)
	if err != nil {
		s.captureError(to, err)
		sp.End()
		return
	}
	if s.snap != f.snap {
		// The watch list moved (or this is the first hop): the pipes
		// re-primed, and the dedup starts over on the new list.
		s.snap = f.snap
		s.peak = make([]float64, len(f.snap.watch))
		s.dedup = NewEdgeDedup(len(s.peak), f.minAmp)
	}
	emitted := false
	for i := range s.peak {
		s.peak[i] = 0
	}
	for _, i := range f.active {
		p := f.pipes[i]
		if !p.emitted {
			continue
		}
		emitted = true
		for k, a := range p.amps {
			if a > s.peak[k] {
				s.peak[k] = a
			}
		}
	}
	if !emitted {
		// Warm-up: the first window has not filled yet (hop < window
		// only; at hop == window the first hop completes a window).
		sp.End()
		return
	}
	// The dedup's attack level carries this window's relative floor —
	// identical leakage rejection to the detection filter, so an onset
	// can only fire for a frequency the filter would also report.
	maxPeak := 0.0
	for _, a := range s.peak {
		if a > maxPeak {
			maxPeak = a
		}
	}
	s.dedup.Step(s.peak, f.relFloor*maxPeak, func(i int) { s.onset(to, i) })
	s.ctrl.noteDetections(to-s.window, to, dets)
	sp.End()
}

// capture renders [from, to) into the pipe's ring and publishes the
// hop frame to the transform queue. Frame samples are copied into a
// pool slot so the queue's contents stay valid if capture runs ahead
// of the transform stage (up to the queue capacity).
func (p *streamPipe) capture(from, to float64) error {
	if err := p.ring.Append(from, to); err != nil {
		return err
	}
	hop := p.ring.LastHop()
	buf := p.pool[p.seq%len(p.pool)]
	p.seq++
	n := copy(buf, hop)
	if !p.q.TryPush(hopFrame{from: from, to: to, samples: buf[:n]}) {
		// Queue full — cannot happen in the synchronous sim (every hop
		// is drained before the next), and a decoupled producer would
		// block or drop by policy here. Fail loudly rather than lose a
		// frame silently.
		panic("core: stream transform stage fell behind capture")
	}
	return nil
}

// drain runs the transform stage: every queued hop frame advances the
// sliding kernel, and each completed window goes through finishWindow.
func (p *streamPipe) drain(f *Fleet, i int) {
	for {
		fr, ok := p.q.TryPop()
		if !ok {
			return
		}
		p.curTo = fr.to
		if p.sg != nil {
			p.sg.Process(fr.samples, p.emit)
			continue
		}
		p.stft.Append(fr.samples)
		if !p.stft.Full() {
			continue
		}
		mags := p.stft.Spectrum(dsp.Hann)
		fftAmplitudes(p.amps, mags, p.snap.watch, f.geom.windowN, p.stft.FFTSize(), f.geom.rate, p.snap.ToleranceHz)
		p.finishWindow(f, i)
	}
}

// finishWindow hands one completed window's amplitude estimates to the
// fleet's per-microphone stage (identical float operations to the
// batch path).
func (p *streamPipe) finishWindow(f *Fleet, i int) {
	p.emitted = true
	f.observe(i, p.curTo-f.geom.window, p.amps)
}

// onset handles one deduplicated rising edge at hop close time at:
// counters, the sim-time sound-to-detection latency histogram (ground
// truth from the emission schedule via LatestArrivalBefore), and the
// OnOnset callback.
func (s *StreamController) onset(at float64, i int) {
	s.Onsets++
	s.tm.onsets.Inc()
	f, tol := s.snap.watch[i], s.snap.ToleranceHz
	// Latency attribution: the rising edge was produced by the window
	// [at-window, at), so only an emission arriving inside it (plus one
	// hop of slack) can be its cause. An onset with no such arrival —
	// background noise crossing a watched frequency, or an edge
	// re-armed long after the tone began — is counted but contributes
	// no latency observation, because pairing it with a stale emission
	// would poison the percentiles.
	if arr, ok := s.ctrl.mic.LatestArrivalBefore(f, tol, at); ok && at-arr <= s.window+s.hop {
		s.tm.detectLatency.Observe(at - arr)
	}
	if s.OnOnset != nil {
		s.OnOnset(Detection{Time: at, Frequency: f, Amplitude: s.peak[i]})
	}
}

// captureError handles a hop whose span precedes the compaction
// horizon: the error is counted and recorded (the fleet has already
// reset every pipe, so the stream re-primes cleanly at the live edge
// instead of analysing a window with a hole in it).
func (s *StreamController) captureError(now float64, err error) {
	s.CaptureErrors++
	s.tm.captureErrs.Inc()
	s.ctrl.Errors.Record(now, "stream", err)
}

// reset clears the pipe's ring, sliding kernel, and in-flight frames so
// it re-primes cleanly — after a capture error, a watch-list rebuild,
// or when its quarantined microphone leaves the fan-out.
func (p *streamPipe) reset() {
	p.ring.Reset()
	if p.sg != nil {
		p.sg.Reset()
	}
	if p.stft != nil {
		p.stft.Reset()
	}
	for {
		if _, ok := p.q.TryPop(); !ok {
			break
		}
	}
}

// Stop halts the streaming pipeline.
func (s *StreamController) Stop() {
	if s.ticker != nil {
		s.ticker.Stop()
		s.ticker = nil
	}
	if s.ctrl.stream == s {
		s.ctrl.stream = nil
		s.ctrl.started = false
	}
}

// Hop returns the stream's hop in seconds.
func (s *StreamController) Hop() float64 { return s.hop }

// streamMetrics is the stream's telemetry handle set; nil (and no-op)
// until Instrument.
type streamMetrics struct {
	wall          telemetry.TimeSource
	hops          *telemetry.Counter
	onsets        *telemetry.Counter
	captureErrs   *telemetry.Counter
	detectLatency *telemetry.Histogram
	hopWall       *telemetry.Histogram
}

// Instrument registers the stream's telemetry with reg: hop/onset/
// capture-error counters, the sim-time sound-to-detection latency
// histogram, and the wall-time per-hop cost histogram. StartStream
// calls it automatically when the controller is instrumented; call it
// directly otherwise.
func (s *StreamController) Instrument(reg *telemetry.Registry) {
	s.tm = streamMetrics{
		wall:          telemetry.Wall(),
		hops:          reg.Counter(metricStreamHops),
		onsets:        reg.Counter(metricStreamOnsets),
		captureErrs:   reg.Counter(metricStreamCaptureErrors),
		detectLatency: reg.Histogram(metricStreamDetectLatency, telemetry.StreamLatencyBuckets),
		hopWall:       reg.Histogram(metricStreamHopWall, telemetry.StreamLatencyBuckets),
	}
}

// DetectLatency returns the sim-time sound-to-detection latency
// histogram (nil when uninstrumented) — the p50/p99 source for the
// latency budget.
func (s *StreamController) DetectLatency() *telemetry.Histogram {
	return s.tm.detectLatency
}
