package core

import (
	"sync"

	"mdn/internal/acoustic"
	"mdn/internal/audio"
	"mdn/internal/parallel"
	"mdn/internal/telemetry"
)

// Fleet is the controller's window engine and its only fan-out: one
// analysis window (or streaming hop) fanned out over N microphones on
// a fixed pool of workers. Every controller owns one — a single
// microphone is a serial fleet of one — and Controller.EnableFleet
// resizes its pool. The paper's deployments are fleets — many
// switches emitting tones toward one listening controller — and a
// single Detector cannot serve them concurrently because its
// per-window scratch is reused (the DSP plans underneath are shared
// and concurrency-safe; the scratch is not). Cloning the detector per
// worker shares the plans and duplicates only the scratch.
//
// Each microphone runs one per-microphone stage, after one of two
// transforms: the batch transform (capture the window, run the
// detector's Goertzel plan or FFT) for Analyse, or the microphone's
// streaming pipe (capture ring → sliding Goertzel/STFT) for a
// controller started with StartStream. Either way the stage applies
// the detection floor, filters, and feeds the device monitor.
//
// Determinism contract: a fan-out returns the same detection slice
// for the same room state regardless of worker count or scheduling
// order. Workers write into per-microphone result slots, and the
// merge step runs after the barrier, ordering detections by (time,
// frequency) with microphone registration order breaking exact ties —
// so subscriber semantics are identical to a serial multi-microphone
// loop.
//
// A Fleet is driven from one goroutine (the simulation loop):
// AddMicrophone and Analyse must not race each other. The concurrency
// is inside Analyse, between its workers.
type Fleet struct {
	template *Detector
	workers  int

	mics    []*acoustic.Microphone
	out     [][]Detection // per-microphone results, reused
	pipes   []*streamPipe // per-microphone streaming pipes; nil until StartStream
	geom    hopGeom       // streaming geometry, set by StartStream
	merged  []Detection
	sortTmp []Detection // merge-sort scratch, reserved with merged

	// snap is the watch-list snapshot the fan-out runs under: one
	// locked Clone of the template, retaken only when the template's
	// watch revision moves. Every worker clone and every streaming
	// transform is built from it, so a window publishes exactly the
	// list it ran on; an AddWatch landing mid-window takes effect at
	// the next one.
	snap *Detector
	dets []*Detector     // one clone of snap per worker
	bufs []*audio.Buffer // one capture buffer per worker
	// minAmp and relFloor are the template's thresholds, read at
	// fan-out so a threshold change lands on the next window.
	minAmp, relFloor float64

	// mon, when set, receives each microphone's per-window amplitude
	// estimates and supplies per-microphone detection floors (see
	// Controller.EnableDeviceMonitor).
	mon *DeviceMonitor

	// Quarantine state: quarMu guards the flags so SetQuarantined is
	// safe from any goroutine; the fan-out snapshots the active index
	// list under the lock, so mid-window flips land on the next window.
	// Shard boundaries are a pure function of the ACTIVE microphone
	// count, so the merge stays byte-identical at any worker count for
	// a given quarantine set.
	quarMu      sync.Mutex
	quarantined []bool
	active      []int
	activeDirty bool

	// The in-flight fan-out: its window bounds and transform; written
	// before tasks are sent, read by workers after receiving one (the
	// channel send is the happens-before edge).
	from, to  float64
	streaming bool

	tasks   chan micShard
	wg      sync.WaitGroup
	started bool
	closed  bool

	busy   *telemetry.Gauge
	window *telemetry.Histogram
	wall   telemetry.TimeSource
}

// NewFleet builds a fleet cloning template for each of workers pool
// slots (workers <= 0 means GOMAXPROCS). The template stays live:
// watch-list additions and threshold changes made to it (for example
// through Controller.Detector) are picked up at the next Analyse.
func NewFleet(template *Detector, workers int) *Fleet {
	if template == nil {
		panic("core: NewFleet requires a detector template")
	}
	return &Fleet{template: template, workers: parallel.Workers(workers)}
}

// resize sets the pool size (workers <= 0 means GOMAXPROCS). A running
// pool is stopped; the next parallel fan-out starts one of the new
// size.
func (f *Fleet) resize(workers int) {
	f.Close()
	f.closed = false
	f.workers = parallel.Workers(workers)
}

// AddMicrophone registers one listening point. Call from the driving
// goroutine only, not concurrently with Analyse.
func (f *Fleet) AddMicrophone(m *acoustic.Microphone) {
	if m == nil {
		panic("core: Fleet.AddMicrophone requires a microphone")
	}
	f.mics = append(f.mics, m)
	f.out = append(f.out, nil)
	if f.pipes != nil {
		f.pipes = append(f.pipes, newStreamPipe(f, len(f.mics)-1))
	}
	f.quarMu.Lock()
	f.quarantined = append(f.quarantined, false)
	f.activeDirty = true
	f.quarMu.Unlock()
}

// SetQuarantined drops microphone i from (or readmits it to) the
// fan-out. Safe from any goroutine; a flip during an in-flight window
// takes effect at the next fan-out. Quarantined microphones are not
// captured by the fleet, so an out-of-band prober may capture them
// without violating the single-capturer contract.
func (f *Fleet) SetQuarantined(i int, q bool) {
	f.quarMu.Lock()
	defer f.quarMu.Unlock()
	if i < 0 || i >= len(f.quarantined) {
		panic("core: Fleet.SetQuarantined index out of range")
	}
	if f.quarantined[i] != q {
		f.quarantined[i] = q
		f.activeDirty = true
	}
}

// IsQuarantined reports whether microphone i is out of the fan-out.
func (f *Fleet) IsQuarantined(i int) bool {
	f.quarMu.Lock()
	defer f.quarMu.Unlock()
	return i >= 0 && i < len(f.quarantined) && f.quarantined[i]
}

// syncActive rebuilds the active-microphone index snapshot when the
// quarantine set moved. Called at fan-out, before workers read it. A
// quarantined microphone's streaming pipe is reset as it leaves, so
// it re-primes from the live edge when it re-enters the active list
// instead of splicing pre-quarantine samples onto the current window.
func (f *Fleet) syncActive() {
	f.quarMu.Lock()
	defer f.quarMu.Unlock()
	if !f.activeDirty && f.active != nil {
		return
	}
	f.active = f.active[:0]
	for i, q := range f.quarantined {
		if !q {
			f.active = append(f.active, i)
		} else if f.pipes != nil {
			f.pipes[i].reset()
		}
	}
	f.activeDirty = false
}

// Instrument registers the fleet's telemetry: a gauge of workers
// currently busy and a histogram of per-window fan-out wall time
// (capture + detect across all microphones, barrier included).
func (f *Fleet) Instrument(reg *telemetry.Registry) {
	f.busy = reg.Gauge(metricFleetBusy)
	f.window = reg.Histogram(metricFleetWindow, telemetry.DefaultLatencyBuckets)
	f.wall = telemetry.Wall()
}

// Analyse captures and analyses [from, to) on every active
// microphone through the batch transform, fanning the work across the
// pool, and returns the merged detections ordered by (time,
// frequency). The returned slice is scratch owned by the fleet, valid
// until the next fan-out — the same contract as Detector.Detect.
// Steady-state calls allocate nothing.
func (f *Fleet) Analyse(from, to float64) []Detection {
	f.streaming = false
	return f.fanOut(from, to)
}

// hop advances every active microphone's streaming pipe over the hop
// [from, to) and returns the merged detections of the windows that
// completed. A capture behind the compaction horizon resets every
// pipe, so the stream re-primes at the live edge, and returns the
// error of the first failing microphone in registration order.
func (f *Fleet) hop(from, to float64) ([]Detection, error) {
	f.streaming = true
	dets := f.fanOut(from, to)
	for _, i := range f.active {
		if err := f.pipes[i].err; err != nil {
			for _, p := range f.pipes {
				p.reset()
			}
			return nil, err
		}
	}
	return dets, nil
}

// fanOut runs the in-flight transform and the per-microphone stage on
// every active microphone — serially, or on the pool over shards of
// the active list — and merges the result slots.
func (f *Fleet) fanOut(from, to float64) []Detection {
	if len(f.mics) == 0 {
		return nil
	}
	f.syncActive()
	if len(f.active) == 0 {
		return nil
	}
	sp := telemetry.StartSpan(f.window, f.wall)
	f.syncSnapshot()
	f.reserve()
	f.from, f.to = from, to
	if f.workers == 1 || len(f.active) == 1 {
		// Serial reference path: same per-microphone work, same merge.
		for _, i := range f.active {
			f.analyseMic(0, i)
		}
	} else {
		f.start()
		shards := f.shards()
		f.wg.Add(shards)
		m := len(f.active)
		base, ext := m/shards, m%shards
		lo := 0
		for s := 0; s < shards; s++ {
			hi := lo + base
			if s < ext {
				hi++
			}
			f.tasks <- micShard{lo, hi}
			lo = hi
		}
		f.wg.Wait()
	}
	f.merged = f.merged[:0]
	for _, i := range f.active {
		f.merged = append(f.merged, f.out[i]...)
	}
	sortDetections(f.merged, f.sortTmp)
	sp.End()
	if len(f.merged) == 0 {
		return nil
	}
	return f.merged
}

// Close stops the worker goroutines. The fleet stays usable on the
// serial path after Close; call it when tearing a fleet down so pools
// built per benchmark iteration or per test do not leak goroutines.
func (f *Fleet) Close() {
	if f.started && !f.closed {
		close(f.tasks)
		f.closed = true
		f.started = false
	}
}

// syncSnapshot retakes the watch snapshot when the template's
// revision moved, rebuilds the per-worker clones from it when the
// snapshot or the pool size changed, and copies the template's scalar
// settings for this window (a handful of assignments).
func (f *Fleet) syncSnapshot() {
	t := f.template
	if f.snap == nil || f.snap.WatchRev() != t.WatchRev() {
		f.snap = t.Clone()
		f.dets = f.dets[:0]
	}
	if len(f.dets) != f.workers {
		f.dets = f.dets[:0]
		for w := 0; w < f.workers; w++ {
			f.dets = append(f.dets, f.snap.Clone())
		}
		for len(f.bufs) < f.workers {
			f.bufs = append(f.bufs, nil)
		}
	}
	f.minAmp, f.relFloor = t.MinAmplitude, t.RelativeFloor
	for _, d := range f.dets {
		d.Method = t.Method
		d.ToleranceHz = t.ToleranceHz
	}
}

// reserve grows the merge-path slices to their hard bound: the filter
// yields at most one detection per watched frequency, so one window
// produces at most mics × watch detections. Reserving that up front
// (re-checked per window, so watch-list growth is covered) means
// per-window detection-count wobble — self-noise flips borderline
// amplitudes across the threshold — never triggers a mid-flight
// growslice, keeping the steady state allocation-free.
func (f *Fleet) reserve() {
	per := len(f.snap.watch)
	bound := per * len(f.mics)
	if cap(f.merged) < bound {
		f.merged = make([]Detection, 0, bound)
	}
	if cap(f.sortTmp) < bound {
		f.sortTmp = make([]Detection, bound)
	}
	for i := range f.out {
		if cap(f.out[i]) < per {
			f.out[i] = make([]Detection, 0, per)
		}
	}
}

// start launches the worker pool on first parallel use.
func (f *Fleet) start() {
	if f.started {
		return
	}
	if f.closed {
		panic("core: Analyse on a closed Fleet with multiple workers")
	}
	f.tasks = make(chan micShard)
	for w := 0; w < f.workers; w++ {
		go f.worker(w, f.tasks)
	}
	f.started = true
}

// micShard is one contiguous run [lo, hi) of ACTIVE-list positions —
// the unit of parallel fan-out. Sharding microphones instead of
// sending them one at a time amortises channel traffic at fleet scale:
// a 1024-microphone window is ~4×workers sends rather than 1024, while
// each worker still iterates only the audible sets of its shard's
// microphones (the per-microphone culled capture).
type micShard struct{ lo, hi int }

// shards returns the fan-out granularity: several contiguous shards
// per worker so an unlucky shard of loud microphones cannot straggle
// the window, capped at one shard per active microphone. Shard
// boundaries are a pure function of the active count, never the pool
// size's scheduling luck; workers write per-microphone result slots,
// so the merged output is identical at any worker count.
func (f *Fleet) shards() int {
	n := 4 * f.workers
	if n > len(f.active) {
		n = len(f.active)
	}
	return n
}

// worker processes microphone shards until its task channel closes.
// Worker w owns dets[w] and bufs[w]; distinct shards cover disjoint
// microphones (result slots, pipes, monitor trackers), so the only
// synchronisation needed is the WaitGroup.
func (f *Fleet) worker(w int, tasks <-chan micShard) {
	for sh := range tasks {
		f.busy.Add(1)
		for k := sh.lo; k < sh.hi; k++ {
			f.analyseMic(w, f.active[k])
		}
		f.busy.Add(-1)
		f.wg.Done()
	}
}

// analyseMic runs microphone i's transform for the in-flight fan-out
// with worker w's scratch — the streaming pipe's hop, or the batch
// capture and Goertzel/FFT pass — and hands its amplitudes to the
// per-microphone stage.
func (f *Fleet) analyseMic(w, i int) {
	if f.streaming {
		f.pipes[i].hop(f, i)
		return
	}
	f.bufs[w] = f.mics[i].CaptureInto(f.bufs[w], f.from, f.to)
	f.observe(i, f.from, f.dets[w].windowAmplitudes(f.bufs[w]))
}

// observe is the per-microphone stage, the one place a window's
// per-watch amplitude estimates become detections: the detection
// floor (the device monitor's recalibrated per-microphone floor when
// one is attached), the absolute and relative threshold filter, and
// the monitor's noise observation (stored per microphone, folded
// after the barrier).
func (f *Fleet) observe(i int, windowStart float64, amps []float64) {
	minAmp := f.minAmp
	if f.mon != nil {
		minAmp = f.mon.floorFor(i, minAmp)
	}
	f.out[i] = filterDetections(f.out[i][:0], amps, f.snap.watch, minAmp, f.relFloor, windowStart)
	if f.mon != nil {
		f.mon.ObserveMic(i, windowStart, f.out[i], amps)
	}
}

// sortDetections orders detections by (Time, Frequency), stable: exact
// ties keep their arrival order, which Analyse arranges to be
// microphone registration order. It is a bottom-up merge sort over
// caller-provided scratch (len(tmp) >= len(s)) — allocation-free, and
// O(n log n) where the previous insertion sort went quadratic once
// every microphone heard every voice (a 256-voice fleet merges ~65k
// detections per window).
func sortDetections(s, tmp []Detection) {
	n := len(s)
	const run = 32
	for lo := 0; lo < n; lo += run {
		hi := lo + run
		if hi > n {
			hi = n
		}
		insertionSortDetections(s[lo:hi])
	}
	tmp = tmp[:len(s)]
	for width := run; width < n; width *= 2 {
		for lo := 0; lo < n-width; lo += 2 * width {
			mid := lo + width
			hi := mid + width
			if hi > n {
				hi = n
			}
			mergeDetections(tmp[lo:hi], s[lo:mid], s[mid:hi])
			copy(s[lo:hi], tmp[lo:hi])
		}
	}
}

func insertionSortDetections(s []Detection) {
	for i := 1; i < len(s); i++ {
		d := s[i]
		j := i - 1
		for j >= 0 && detLess(d, s[j]) {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = d
	}
}

// mergeDetections merges two sorted runs into dst, taking from a on
// ties — the stability guarantee.
func mergeDetections(dst, a, b []Detection) {
	i, j := 0, 0
	for k := range dst {
		if i < len(a) && (j >= len(b) || !detLess(b[j], a[i])) {
			dst[k] = a[i]
			i++
		} else {
			dst[k] = b[j]
			j++
		}
	}
}

func detLess(a, b Detection) bool {
	return a.Time < b.Time || (a.Time == b.Time && a.Frequency < b.Frequency)
}
