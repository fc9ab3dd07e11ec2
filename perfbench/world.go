package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"mdn/internal/acoustic"
	"mdn/internal/audio"
	"mdn/internal/core"
	"mdn/internal/dsp"
	"mdn/internal/netsim"
	"mdn/internal/telemetry"
)

// windowS is the controller window every workload advances by: one
// Sim.RunUntil per 50 ms, the paper's Fig. 2b real-time budget.
const windowS = core.DefaultWindow

// world is one workload's simulated deployment for one round: the
// network, the room, the controller and its applications, built from
// the repository's public constructors.
type world struct {
	sim  *netsim.Sim
	room *acoustic.Room
	ctrl *core.Controller
	// mics are the controller's microphones; mics[0] is the one tone
	// arrivals are timed at.
	mics   []*acoustic.Microphone
	voices []*core.Voice
	// emitters names the speakers whose tones are watched onsets.
	emitters map[string]bool
	duration float64 // simulated seconds in one round
	hop      float64 // streaming hop, 0 for batch windows

	tr  *tracer             // nil in untraced passes
	reg *telemetry.Registry // counters, traced passes only
	rec *recorder
	rep *replayer

	// finish runs the workload's output checks and fills its outputs
	// into r. It is untimed.
	finish func(r *roundResult)
}

// roundResult is everything one round measured and produced.
type roundResult struct {
	setupS    float64
	runS      float64   // wall seconds inside Sim.RunUntil
	windowsUS []float64 // simulation-thread CPU µs per 50 ms window
	// The same times at the reference host speed (calib.go), and the
	// mean time of the reference kernel in the round.
	refSetupS, refRunS float64
	refWindowsUS       []float64
	kernelNs           float64
	simS               float64
	detectMS           []float64 // simulated ms, tone arrival → reporting window close
	flowmodMS          []float64 // simulated ms, switch trigger → confirmed Flow-MOD
	installMS          []float64 // simulated ms, Install call → confirmed Flow-MOD
	goodput            float64   // bit/s, modem-link only
	pkts               uint64    // data-plane packets delivered
	liveHeap           float64   // MB after a forced GC, world reachable
	mallocs            uint64
	gcPauseNs          uint64

	index             int // round number within its pass
	attempted, failed int
	failures          []string
	digest            uint64

	// counts holds per-layer counters of this round, by metric name.
	counts map[string]float64
}

func (r *roundResult) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// expect counts one checked operation, failing it when ok is false.
func (r *roundResult) expect(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
}

// mix folds the bytes of v into the running digest (FNV-1a).
func mix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= 1099511628211
		v >>= 8
	}
	return h
}

const digestSeed = 14695981039346656037

func (r *roundResult) note(vs ...float64) {
	for _, v := range vs {
		r.digest = mix(r.digest, math.Float64bits(v))
	}
}

// recorder is the benchmark's own window subscriber, present in every
// pass: it logs which watched tones each dispatched window reported, so
// detection latency can be measured against the room's ground truth,
// and digests the detections so traced and untraced passes can be
// compared exactly.
type recorder struct {
	idx    map[float64]int
	ends   [][]float64 // per watched tone: close times of reporting windows
	digest uint64
}

func newRecorder(watch []float64) *recorder {
	r := &recorder{idx: make(map[float64]int, len(watch)), ends: make([][]float64, len(watch)), digest: digestSeed}
	for i, f := range watch {
		r.idx[f] = i
	}
	return r
}

func (r *recorder) handle(from float64, dets []core.Detection) {
	end := from + windowS
	r.digest = mix(r.digest, math.Float64bits(from))
	for _, d := range dets {
		r.digest = mix(mix(r.digest, math.Float64bits(d.Frequency)), math.Float64bits(d.Amplitude))
		i, ok := r.idx[d.Frequency]
		if !ok {
			continue
		}
		if n := len(r.ends[i]); n == 0 || r.ends[i][n-1] != end {
			r.ends[i] = append(r.ends[i], end)
		}
	}
}

// detectLatencies matches every watched emission that finished before
// the round's end to the first window that reported its tone after the
// tone reached mics[0]. It returns the latencies in simulated ms and
// the number of emissions no window reported.
func (w *world) detectLatencies() (lat []float64, missed int) {
	mic := w.mics[0]
	for _, e := range w.room.Emissions() {
		if !w.emitters[e.Speaker] {
			continue
		}
		i, ok := w.rec.idx[e.Tone.Frequency]
		if !ok {
			continue
		}
		arr, ok := mic.ArrivalOf(e)
		if !ok {
			continue
		}
		// The reporting window must overlap the tone: it closes after
		// the arrival and opens before the tone ends.
		limit := arr + e.Tone.Duration + windowS
		if limit+w.hop > w.duration {
			continue
		}
		ends := w.rec.ends[i]
		k := sort.SearchFloat64s(ends, arr+1e-9)
		if k < len(ends) && ends[k] <= limit+w.hop {
			lat = append(lat, 1e3*(ends[k]-arr))
		} else {
			missed++
		}
	}
	return lat, missed
}

// subscribeRecorder registers the recorder (and, when traced, the
// replay) after every application, so they see each window last.
func (w *world) subscribeRecorder() {
	w.rec = newRecorder(w.ctrl.Detector.Watch())
	w.ctrl.SubscribeWindowsNamed("bench-recorder", func(from float64, dets []core.Detection) {
		w.rec.handle(from, dets)
		if w.rep != nil {
			w.rep.replay(w.tr, w.sim.Now(), from, dets)
		}
	})
}

// dispatchPre and dispatchPost bracket the applications' window
// handlers with a "core.dispatch" span: one is subscribed before the
// applications, the other after them, and the controller calls
// subscribers in registration order.
func (w *world) dispatchPre() {
	if w.tr == nil {
		return
	}
	w.ctrl.SubscribeWindowsNamed("bench-dispatch-begin", func(float64, []core.Detection) {
		w.tr.begin("core.dispatch")
	})
}

func (w *world) dispatchPost() {
	if w.tr == nil {
		return
	}
	w.ctrl.SubscribeWindowsNamed("bench-dispatch-end", func(float64, []core.Detection) {
		w.tr.end(w.tr.cur)
	})
}

// timed wraps a window handler in a span of the given name when traced.
func (w *world) timed(name string, fn func(float64, []core.Detection)) func(float64, []core.Detection) {
	if w.tr == nil {
		return fn
	}
	return func(from float64, dets []core.Detection) {
		sp := w.tr.begin(name)
		fn(from, dets)
		w.tr.end(sp)
	}
}

// timedTap wraps a switch tap in an aggregate "core.tap" span when
// traced.
func (w *world) timedTap(fn func(*netsim.Packet, int)) func(*netsim.Packet, int) {
	if w.tr == nil {
		return fn
	}
	tr := w.tr
	return func(p *netsim.Packet, in int) {
		t0 := tr.now()
		fn(p, in)
		tr.add("core.tap", t0, tr.now()-t0)
	}
}

// render times one noise-loop render as an "audio.render" span when
// traced.
func (w *world) render(fn func() *acoustic.NoiseSource) *acoustic.NoiseSource {
	if w.tr == nil {
		return fn()
	}
	sp := w.tr.begin("audio.render")
	src := fn()
	w.tr.end(sp)
	return src
}

// replayer re-runs, on each dispatched window's exact span, the calls
// the controller hides behind its tick — capture, transform and the
// detection threshold — timing each, and checks that the replay reports
// the detections the controller dispatched. Onset confirmation is
// replayed on the dispatched batches.
type replayer struct {
	det      *core.Detector // clone: watch list and thresholds
	watch    []float64
	onset    *core.OnsetFilter
	onsets   int
	mismatch int

	// batch path
	mic  *acoustic.Microphone
	buf  *audio.Buffer
	plan *dsp.GoertzelPlan
	mags []float64

	// streaming path: one capture ring and sliding kernel per mic
	pipes    []*replayPipe
	hop      float64
	nextTick float64 // the stream ticker's next firing time

	got, want []core.Detection
}

type replayPipe struct {
	ring  *acoustic.CaptureRing
	sg    *dsp.SlidingGoertzel
	amps  []float64
	scale float64
}

func newReplayer(w *world) *replayer {
	det := w.ctrl.Detector.Clone()
	rp := &replayer{det: det, watch: det.Watch(), onset: core.NewOnsetFilter(), hop: w.hop, nextTick: w.hop}
	rate := w.room.SampleRate
	if w.hop == 0 {
		rp.mic = w.mics[0]
		rp.plan = dsp.NewGoertzelPlan(rp.watch, rate)
		return rp
	}
	windowN := int(math.Round(windowS * rate))
	hopN := int(math.Round(w.hop * rate))
	for _, m := range w.mics {
		rp.pipes = append(rp.pipes, &replayPipe{
			ring:  acoustic.NewCaptureRing(m, windowN),
			sg:    dsp.NewSlidingGoertzel(rp.watch, rate, windowN, hopN),
			amps:  make([]float64, len(rp.watch)),
			scale: 2 / float64(windowN),
		})
	}
	return rp
}

// threshold appends the watched tones whose amplitude clears both the
// detector's absolute floor and its floor relative to the loudest tone.
func (rp *replayer) threshold(out []core.Detection, amps []float64, from float64) []core.Detection {
	maxAmp := 0.0
	for _, a := range amps {
		maxAmp = math.Max(maxAmp, a)
	}
	floor := math.Max(rp.det.MinAmplitude, rp.det.RelativeFloor*maxAmp)
	for i, a := range amps {
		if a >= floor {
			out = append(out, core.Detection{Time: from, Frequency: rp.watch[i], Amplitude: a})
		}
	}
	return out
}

// replay runs at the controller tick now that dispatched the window
// starting at from.
func (rp *replayer) replay(tr *tracer, now, from float64, dets []core.Detection) {
	sp := tr.begin("bench.replay")
	rp.got = rp.got[:0]
	if rp.hop == 0 {
		rp.replayBatch(tr, from, now)
	} else {
		rp.replayStream(tr, from, now)
	}
	rp.want = append(rp.want[:0], dets...)
	if !sameDetections(rp.got, rp.want) {
		rp.mismatch++
	}
	onsetSpan := tr.begin("core.onset")
	rp.onsets += len(rp.onset.Step(dets))
	tr.end(onsetSpan)
	tr.end(sp)
}

func (rp *replayer) replayBatch(tr *tracer, from, to float64) {
	sp := tr.begin("acoustic.capture")
	rp.buf = rp.mic.CaptureInto(rp.buf, from, to)
	tr.end(sp)
	sp = tr.begin("dsp.goertzel")
	rp.mags = rp.plan.MagnitudesInto(rp.mags, rp.buf.Samples)
	tr.end(sp)
	sp = tr.begin("core.detect")
	scale := 2 / float64(rp.buf.Len())
	for i := range rp.mags {
		rp.mags[i] *= scale
	}
	rp.got = rp.threshold(rp.got, rp.mags, from)
	tr.end(sp)
}

func (rp *replayer) replayStream(tr *tracer, from, now float64) {
	// Hops before the first full window dispatch nothing, so catch up on
	// every tick since the last replayed one. Tick times accumulate as
	// netsim's ticker accumulates them, and each hop spans [tick-hop,
	// tick) as the controller's does, so the spans are bit-identical.
	for rp.nextTick <= now {
		tick := rp.nextTick
		rp.nextTick += rp.hop
		for _, p := range rp.pipes {
			sp := tr.begin("acoustic.capture")
			err := p.ring.Append(tick-rp.hop, tick)
			tr.end(sp)
			if err != nil {
				rp.mismatch++
				continue
			}
			sp = tr.begin("dsp.sliding")
			p.sg.Process(p.ring.LastHop(), func(mags []float64) {
				for i, m := range mags {
					p.amps[i] = m * p.scale
				}
			})
			tr.end(sp)
		}
	}
	sp := tr.begin("core.detect")
	for _, p := range rp.pipes {
		rp.got = rp.threshold(rp.got, p.amps, from)
	}
	tr.end(sp)
}

// sameDetections compares two batches as multisets of (frequency,
// amplitude): the streaming path merges microphones in its own order.
func sameDetections(a, b []core.Detection) bool {
	if len(a) != len(b) {
		return false
	}
	less := func(s []core.Detection) func(i, j int) bool {
		return func(i, j int) bool {
			if s[i].Frequency != s[j].Frequency {
				return s[i].Frequency < s[j].Frequency
			}
			return s[i].Amplitude < s[j].Amplitude
		}
	}
	sort.Slice(a, less(a))
	sort.Slice(b, less(b))
	for i := range a {
		if a[i].Frequency != b[i].Frequency || a[i].Amplitude != b[i].Amplitude || a[i].Time != b[i].Time {
			return false
		}
	}
	return true
}

// runRound builds one world and advances it window by window, sampling
// the calibration kernel through sc. tr, when not nil, records the
// round's spans.
func runRound(wl *workload, index int, seed int64, v variant, tr *tracer, sc *scaler) (*roundResult, error) {
	r := &roundResult{index: index, digest: digestSeed, counts: make(map[string]float64)}
	runtime.GC()
	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	heapBefore := msBefore.HeapAlloc
	t0 := time.Now()
	var setupSpan int32
	if tr != nil {
		tr.window = -1
		setupSpan = tr.begin("setup")
	}
	w, err := wl.build(seed, v, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", wl.name, err)
	}
	if tr != nil {
		tr.end(setupSpan)
	}
	r.setupS = time.Since(t0).Seconds()
	if err := sc.begin(r); err != nil {
		return nil, err
	}

	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	n := int(math.Round(w.duration / windowS))
	r.windowsUS = make([]float64, 0, n)
	r.refWindowsUS = make([]float64, 0, n)
	for k := 1; k <= n; k++ {
		var ws int32
		if tr != nil {
			ws = tr.beginWindow(tr.windows)
			tr.windows++
		}
		c0, err := threadCPU()
		if err != nil {
			return nil, err
		}
		s := time.Now()
		w.sim.RunUntil(float64(k) * windowS)
		d := time.Since(s)
		c1, err := threadCPU()
		if err != nil {
			return nil, err
		}
		if tr != nil {
			tr.end(ws)
		}
		// Window percentiles use the simulation thread's CPU time: on a
		// shared host, wall time also counts the stretches the thread
		// sat descheduled, which swung p99 by 2-3.5x between runs.
		r.windowsUS = append(r.windowsUS, float64(c1-c0)/1e3)
		r.runS += d.Seconds()
		if err := sc.window(r, c1-c0, d.Seconds()); err != nil {
			return nil, err
		}
	}
	r.simS = float64(n) * windowS
	if err := sc.end(r); err != nil {
		return nil, err
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	r.mallocs = ms1.Mallocs - ms0.Mallocs
	r.gcPauseNs = ms1.PauseTotalNs - ms0.PauseTotalNs

	lat, missed := w.detectLatencies()
	r.detectMS = lat
	r.attempted += len(lat) + missed
	if missed > 0 {
		r.fail("%d watched tones never reported", missed)
		r.failed += missed - 1
	}
	r.digest = mix(r.digest, w.rec.digest)
	w.finish(r)
	if w.rep != nil {
		r.counts["replay.mismatch"] = float64(w.rep.mismatch)
		r.counts["core.onsets"] = float64(w.rep.onsets)
	}
	w.layerCounts(r)

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	// The world's own live heap: what is live now, with the world still
	// reachable, less what was live before it was built (earlier rounds'
	// results).
	r.liveHeap = (float64(ms.HeapAlloc) - float64(heapBefore)) / (1 << 20)
	runtime.KeepAlive(w)
	return r, nil
}

// layerCounts reads the public counters every workload shares.
func (w *world) layerCounts(r *roundResult) {
	c := r.counts
	c["dsp.watch_tones"] = float64(w.ctrl.Detector.WatchLen())
	c["core.detections"] = float64(w.ctrl.Detections)
	c["acoustic.live_emissions"] = float64(w.room.EmissionCount())
	for _, v := range w.voices {
		c["mp.tones_emitted"] += float64(v.Emitted)
		c["mp.tones_suppressed"] += float64(v.Suppressed)
	}
	c["netsim.events"] = float64(w.sim.Events)
	c["netsim.pool_recycled"] = float64(w.sim.PacketsPooled)
	c["netsim.pool_allocated"] = float64(w.sim.PacketsAllocated)
	if w.reg == nil {
		return
	}
	snap := w.reg.Snapshot()
	read := func(metric string) float64 {
		m, _ := snap.Find(metric)
		return m.Value
	}
	// The replay repeats every capture the controller made, on the same
	// room, so the room's capture counters read exactly twice the
	// controller's own.
	c["acoustic.emissions_mixed"] = read("mdn_capture_emissions_mixed_total") / 2
	c["acoustic.emissions_culled"] = read("mdn_capture_emissions_culled_total") / 2
	c["core.devmon_recals"] = read("mdn_device_recalibrations_total")
	c["core.devmon_quarantines"] = read("mdn_device_quarantines_total")
}

// newWorld builds the room, the controller microphone and, when traced,
// the counter registry shared by every world.
func newWorld(seed int64, tr *tracer, duration, hop float64) *world {
	room := acoustic.NewRoom(44100, seed)
	w := &world{
		sim:      netsim.NewSim(),
		room:     room,
		mics:     []*acoustic.Microphone{room.AddMicrophone("controller", acoustic.Position{}, 0.0005)},
		emitters: make(map[string]bool),
		duration: duration,
		hop:      hop,
		tr:       tr,
	}
	if tr != nil {
		w.reg = telemetry.New()
		room.Instrument(w.reg)
	}
	return w
}

// startReplay arms the replay once the controller's watch list is
// final.
func (w *world) startReplay() {
	if w.tr != nil {
		w.rep = newReplayer(w)
	}
}
