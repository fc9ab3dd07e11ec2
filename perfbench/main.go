// Command perfbench is the repository's benchmark: one seeded run of one
// workload, from sound to Flow-MOD, built from the public constructors
// and driven through the real controller. It prints its end-to-end
// metrics (or, with --trace 1, its per-layer metrics) as the last line
// of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload music-batch --seed 1 --seconds 10 --trace 0
//
// See perfbench/README.md for the workloads, the metrics and the
// layers each one is meant to move.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

// variant adjusts a workload for the benchmark's own tests: tiny
// worlds, and a deliberately corrupted expected output that the
// workload's output check must reject.
type variant struct{ tiny, corrupt bool }

// workload is one set of inputs the benchmark runs. README.md records
// why each exists and which layers it loads and bypasses.
type workload struct {
	name  string
	build func(seed int64, v variant, tr *tracer) (*world, error)
}

var workloads = []*workload{
	{"music-batch", buildMusicBatch},
	{"loop-stream", buildLoopStream},
	{"traffic-sketch", buildTrafficSketch},
	{"modem-link", buildModemLink},
}

func findWorkload(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload   string
	seed       int64
	seconds    float64
	trace      int
	cpuprofile string
	spans      string
	tiny       bool
	corrupt    bool
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames())
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "wall seconds to measure")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile of the measured passes to this file")
	fs.StringVar(&o.spans, "spans", "", "traced runs: write spans here (default .bench_build/perfbench/spans-<workload>-<seed>.csv.gz)")
	fs.BoolVar(&o.tiny, "tiny", false, "tiny worlds, for the benchmark's own tests")
	fs.BoolVar(&o.corrupt, "corrupt-expected", false, "corrupt an expected output, so the output check must fail")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl := findWorkload(o.workload)
	if wl == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", o.workload, workloadNames())
		return 2
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	// The simulation runs on this goroutine; pinning it to one OS thread
	// makes that thread's CPU clock the simulation's.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	out := bufio.NewWriter(stdout)
	defer out.Flush()
	fmt.Fprintln(out, hostLine())
	res, err := measure(wl, o, out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		out.Flush()
		fmt.Fprintf(stderr, "perfbench: %s: output check failed\n", wl.name)
		return 1
	}
	fmt.Fprintln(out, string(line))
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, wl := range workloads {
		names[i] = wl.name
	}
	return strings.Join(names, ", ")
}

// hostLine records where the numbers came from.
func hostLine() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(l, "model name") {
				if i := strings.Index(l, ":"); i >= 0 {
					cpu = strings.TrimSpace(l[i+1:])
				}
				break
			}
		}
	}
	return fmt.Sprintf("host: cpu=%q nproc=%d gomaxprocs=%d go=%s %s/%s",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// roundSeed derives round r's world seed from the run seed
// (splitmix64), so one run covers several worlds and the same seed
// always yields the same sequence of worlds.
func roundSeed(seed int64, r int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(r+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// minRounds is the fewest rounds a pass runs, so set-up time is always
// a median of several builds.
const minRounds = 5

// runPass runs rounds until the deadline (and at least minRounds), or
// exactly rounds rounds when rounds > 0.
func runPass(wl *workload, o options, deadline time.Time, rounds int, tr *tracer) ([]*roundResult, error) {
	var out []*roundResult
	sc := &scaler{sample: newCalibrator().kernelNs}
	for r := 0; ; r++ {
		if rounds > 0 && r >= rounds {
			break
		}
		if rounds == 0 && r >= minRounds && time.Now().After(deadline) {
			break
		}
		res, err := runRound(wl, r, roundSeed(o.seed, r), variant{tiny: o.tiny, corrupt: o.corrupt}, tr, sc)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

func measure(wl *workload, o options, log io.Writer) (*result, error) {
	start := time.Now()
	if o.trace == 0 {
		rounds, err := runPass(wl, o, start.Add(seconds(o.seconds)), 0, nil)
		if err != nil {
			return nil, err
		}
		res := tally(wl, rounds, log)
		res.Metrics = endToEnd(rounds)
		return res, nil
	}
	// Traced run: an untraced pass for half the time, then a traced
	// pass over the same worlds, whose outputs must match exactly.
	plain, err := runPass(wl, o, start.Add(seconds(o.seconds/2)), 0, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := runPass(wl, o, time.Time{}, len(plain), tr)
	if err != nil {
		return nil, err
	}
	res := tally(wl, plain, log)
	for i := range plain {
		if plain[i].digest != traced[i].digest {
			res.Correct = false
			fmt.Fprintf(log, "round %d: traced outputs differ from untraced outputs\n", i)
		}
		if n := traced[i].counts["replay.mismatch"]; n > 0 {
			res.Correct = false
			fmt.Fprintf(log, "round %d: replay disagreed with the controller on %.0f windows\n", i, n)
		}
	}
	path := o.spans
	if path == "" {
		path = fmt.Sprintf(".bench_build/perfbench/spans-%s-%d.csv.gz", wl.name, o.seed)
	}
	if err := writeSpans(path, tr.spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(log, "spans: %d written to %s\n", len(tr.spans), path)
	res.Metrics = perLayer(wl, plain, traced, tr.spans, log)
	return res, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// tally sums the checked operations of a pass and logs any failures.
func tally(wl *workload, rounds []*roundResult, log io.Writer) *result {
	res := &result{Correct: true}
	for i, r := range rounds {
		res.Attempted += r.attempted
		res.Failed += r.failed
		for _, f := range r.failures {
			fmt.Fprintf(log, "%s round %d: FAIL %s\n", wl.name, i, f)
		}
	}
	if res.Failed > 0 || res.Attempted == 0 {
		res.Correct = false
	}
	fmt.Fprintf(log, "%s: %d rounds, %d operations checked, %d failed\n", wl.name, len(rounds), res.Attempted, res.Failed)
	return res
}

// pooled concatenates one field of every round.
func pooled(rounds []*roundResult, f func(*roundResult) []float64) []float64 {
	var out []float64
	for _, r := range rounds {
		out = append(out, f(r)...)
	}
	return out
}

// each collects one scalar of every round.
func each(rounds []*roundResult, f func(*roundResult) float64) []float64 {
	out := make([]float64, len(rounds))
	for i, r := range rounds {
		out[i] = f(r)
	}
	return out
}

// endToEndNames lists the end-to-end metrics with their units; every
// workload reports all of them.
var endToEndNames = [][2]string{
	{"realtime_x", "x"},
	{"setup_s", "s"},
	{"window_p50_us", "us"},
	{"window_p99_us", "us"},
	{"detect_p50_ms", "ms"},
	{"detect_p99_ms", "ms"},
	{"live_heap_mb", "MB"},
}

// endToEnd reports every time at the reference host speed (calib.go).
func endToEnd(rounds []*roundResult) map[string]metric {
	wins := pooled(rounds, func(r *roundResult) []float64 { return r.refWindowsUS })
	det := pooled(rounds, func(r *roundResult) []float64 { return r.detectMS })
	vals := map[string]float64{
		"realtime_x":    median(each(rounds, func(r *roundResult) float64 { return r.simS / r.refRunS })),
		"setup_s":       median(each(rounds, func(r *roundResult) float64 { return r.refSetupS })),
		"window_p50_us": quantile(wins, 0.50),
		"window_p99_us": quantile(wins, 0.99),
		"detect_p50_ms": quantile(det, 0.50),
		"detect_p99_ms": quantile(det, 0.99),
		"live_heap_mb":  median(each(rounds, func(r *roundResult) float64 { return r.liveHeap })),
	}
	return named(endToEndNames, vals)
}

func named(names [][2]string, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(names))
	for _, n := range names {
		v, ok := vals[n[0]]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[n[0]] = metric{Value: v, Unit: n[1]}
	}
	return out
}

// perLayerNames lists the per-layer metrics with their units. Counts are
// means per round; *_us and *_ns are medians (or, for aggregate spans,
// means) per call; *_share is the layer's part of the window time.
var perLayerNames = [][2]string{
	{"audio.render_ms", "ms"},
	{"audio.render_share", "ratio"},
	{"acoustic.capture_us", "us"},
	{"acoustic.capture_share", "ratio"},
	{"acoustic.captures", "count"},
	{"acoustic.emissions_mixed", "count"},
	{"acoustic.emissions_culled", "count"},
	{"acoustic.live_emissions", "count"},
	{"dsp.goertzel_us", "us"},
	{"dsp.goertzel_share", "ratio"},
	{"dsp.sliding_us", "us"},
	{"dsp.sliding_share", "ratio"},
	{"dsp.watch_tones", "count"},
	{"core.detect_us", "us"},
	{"core.dispatch_us", "us"},
	{"core.dispatch_share", "ratio"},
	{"core.onset_us", "us"},
	{"core.tap_ns", "ns"},
	{"core.tap_share", "ratio"},
	{"core.detections", "count"},
	{"core.onsets", "count"},
	{"core.app_events", "count"},
	{"core.devmon_recals", "count"},
	{"core.devmon_quarantines", "count"},
	{"mp.tones_emitted", "count"},
	{"mp.tones_suppressed", "count"},
	{"openflow.attempts", "count"},
	{"openflow.retries", "count"},
	{"openflow.failures", "count"},
	{"openflow.install_ms", "ms"},
	{"netsim.events", "count"},
	{"netsim.event_ns", "ns"},
	{"netsim.share", "ratio"},
	{"netsim.packets", "count"},
	{"netsim.drops", "count"},
	{"netsim.queue_drops_bottleneck", "count"},
	{"netsim.pool_recycled", "count"},
	{"netsim.pool_allocated", "count"},
	{"sketch.update_ns", "ns"},
	{"sketch.bytes", "bytes"},
	{"modem.rx_us", "us"},
	{"modem.rx_share", "ratio"},
	{"modem.frames_sent", "count"},
	{"modem.frames_ok", "count"},
	{"modem.symbols_corrected", "count"},
	{"modem.crc_fail", "count"},
	{"go.allocs_per_window", "count"},
	{"go.gc_pause_ms", "ms"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.calib_us", "us"},
	{"bench.realtime_raw_x", "x"},
	{"pkts_per_s", "1/s"},
	{"flowmod_p50_ms", "ms"},
	{"flowmod_p90_ms", "ms"},
	{"goodput_bps", "bit/s"},
	{"miss_rate", "ratio"},
}

// The layers the replay times stand in for the controller's own,
// unspanned capture, transform and threshold inside its tick.
var hiddenLayers = []string{"acoustic.capture", "dsp.goertzel", "dsp.sliding", "core.detect"}

func perLayer(wl *workload, plain, traced []*roundResult, spans []span, log io.Writer) map[string]metric {
	dur, calls := totals(spans)
	self := selfTimes(spans)
	nr := float64(len(traced))
	// Window time as an untraced run would spend it: the traced windows
	// minus the replay the benchmark added to them.
	base := float64(dur["window"] - dur["bench.replay"])
	var hidden float64
	for _, l := range hiddenLayers {
		hidden += float64(dur[l])
	}
	netsimSelf := float64(self["window"]) - hidden
	p50 := func(name string) float64 {
		d := callDurations(spans, name)
		if len(d) == 0 {
			return 0
		}
		return median(d)
	}
	perCall := func(name string) float64 { return ratio(float64(dur[name]), float64(calls[name])) }
	share := func(name string) float64 { return ratio(float64(dur[name]), base) }
	meanCount := func(name string) float64 {
		return sum(each(traced, func(r *roundResult) float64 { return r.counts[name] })) / nr
	}
	vals := make(map[string]float64)
	for _, n := range perLayerNames {
		if _, ok := traced[0].counts[n[0]]; ok {
			vals[n[0]] = meanCount(n[0])
		}
	}
	vals["audio.render_ms"] = float64(dur["audio.render"]) / 1e6 / nr
	vals["audio.render_share"] = ratio(float64(dur["audio.render"]), float64(dur["setup"])+base)
	vals["acoustic.capture_us"] = p50("acoustic.capture")
	vals["acoustic.capture_share"] = share("acoustic.capture")
	vals["acoustic.captures"] = float64(calls["acoustic.capture"]) / nr
	vals["dsp.goertzel_us"] = p50("dsp.goertzel")
	vals["dsp.goertzel_share"] = share("dsp.goertzel")
	vals["dsp.sliding_us"] = p50("dsp.sliding")
	vals["dsp.sliding_share"] = share("dsp.sliding")
	vals["core.detect_us"] = p50("core.detect")
	vals["core.dispatch_us"] = p50("core.dispatch")
	vals["core.dispatch_share"] = share("core.dispatch")
	vals["core.onset_us"] = p50("core.onset")
	vals["core.tap_ns"] = perCall("core.tap")
	vals["core.tap_share"] = share("core.tap")
	vals["netsim.event_ns"] = ratio(netsimSelf, sum(each(traced, func(r *roundResult) float64 { return r.counts["netsim.events"] })))
	vals["netsim.share"] = ratio(netsimSelf, base)
	vals["sketch.update_ns"] = perCall("sketch.update")
	vals["modem.rx_us"] = p50("modem.rx")
	vals["modem.rx_share"] = share("modem.rx")
	installs := pooled(traced, func(r *roundResult) []float64 { return r.installMS })
	vals["openflow.install_ms"] = ratio(sum(installs), float64(len(installs)))

	windows := sum(each(plain, func(r *roundResult) float64 { return float64(len(r.windowsUS)) }))
	// Wall times at the reference host speed, as the end-to-end metrics.
	refRun := func(r *roundResult) float64 { return r.refRunS }
	plainRun := sum(each(plain, refRun))
	vals["go.allocs_per_window"] = ratio(sum(each(plain, func(r *roundResult) float64 { return float64(r.mallocs) })), windows)
	vals["go.gc_pause_ms"] = sum(each(plain, func(r *roundResult) float64 { return float64(r.gcPauseNs) })) / 1e6 / float64(len(plain))
	vals["bench.trace_overhead_pct"] = 100 * (sum(each(traced, refRun))/plainRun - 1)
	vals["bench.calib_us"] = median(each(plain, func(r *roundResult) float64 { return r.kernelNs / 1e3 }))
	vals["bench.realtime_raw_x"] = median(each(plain, func(r *roundResult) float64 { return r.simS / r.runS }))
	vals["pkts_per_s"] = sum(each(plain, func(r *roundResult) float64 { return float64(r.pkts) })) / plainRun
	fm := pooled(plain, func(r *roundResult) []float64 { return r.flowmodMS })
	vals["flowmod_p50_ms"] = quantile(fm, 0.5)
	vals["flowmod_p90_ms"] = quantile(fm, 0.9)
	vals["goodput_bps"] = median(each(plain, func(r *roundResult) float64 { return r.goodput }))
	var att, failed float64
	for _, r := range plain {
		att += float64(r.attempted)
		failed += float64(r.failed)
	}
	vals["miss_rate"] = ratio(failed, att)

	total := float64(dur["setup"]) + base
	rows := []timeRow{
		{"setup (world construction)", float64(self["setup"]) / 1e6, ratio(float64(self["setup"]), total), "span self time"},
		{"netsim + controller glue", netsimSelf / 1e6, ratio(netsimSelf, total), "window self time minus replayed analysis"},
		{"core.dispatch (apps' HandleWindow)", float64(self["core.dispatch"]) / 1e6, ratio(float64(self["core.dispatch"]), total), "span self time"},
	}
	for _, l := range []string{"audio.render", "core.tap", "sketch.update", "modem.rx"} {
		rows = append(rows, timeRow{l, float64(self[l]) / 1e6, ratio(float64(self[l]), total), "span self time"})
	}
	for _, l := range hiddenLayers {
		rows = append(rows, timeRow{l, float64(dur[l]) / 1e6, ratio(float64(dur[l]), total), "replayed on the window's span"})
	}
	writeTable(log, fmt.Sprintf("%s, %d traced rounds, %.1f ms set-up + window time", wl.name, len(traced), total/1e6), rows)
	fmt.Fprintf(log, "  (core.onset, replayed: %.2f ms, is part of core.dispatch)\n", float64(dur["core.onset"])/1e6)
	return named(perLayerNames, vals)
}
