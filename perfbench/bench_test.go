package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {0.75, 3.25}, {1, 4}, {0.99, 3.97},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %g) = %g, want %g", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Errorf("quantile sorted its input in place: %v", xs)
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("quantile of one sample = %g, want 7", got)
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("quantile of no samples = %g, want NaN", got)
	}
}

func TestScalerScalesEachSegmentByItsSamples(t *testing.T) {
	// Samples of 2, 4 and 6 reference times, after set-up, after the
	// window that fills the first segment and at the end: set-up is
	// scaled by 1/2, the first segment by 1/3, the second by 1/5.
	ks := []float64{2 * refKernelNs, 4 * refKernelNs, 6 * refKernelNs, 8 * refKernelNs}
	sc := &scaler{sample: func() (float64, error) { k := ks[0]; ks = ks[1:]; return k, nil }}
	r := &roundResult{setupS: 1}
	if err := sc.begin(r); err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct {
		us    float64
		cpuNs int64
	}{{300, segmentNs / 2}, {600, segmentNs / 2}, {500, segmentNs / 4}} {
		r.windowsUS = append(r.windowsUS, w.us)
		if err := sc.window(r, w.cpuNs, w.us/1e6); err != nil {
			t.Fatal(err)
		}
	}
	if err := sc.end(r); err != nil {
		t.Fatal(err)
	}
	if len(ks) != 1 {
		t.Fatalf("took %d samples, want 3", 4-len(ks))
	}
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-12*math.Abs(want) }
	if !near(r.refSetupS, 0.5) || !near(r.refRunS, 900e-6/3+500e-6/5) || !near(r.kernelNs, 4*refKernelNs) {
		t.Errorf("refSetupS %g refRunS %g kernelNs %g, want 0.5 %g %g", r.refSetupS, r.refRunS, r.kernelNs, 900e-6/3+500e-6/5, 4*refKernelNs)
	}
	want := []float64{100, 200, 100}
	for i := range want {
		if len(r.refWindowsUS) != len(want) || !near(r.refWindowsUS[i], want[i]) {
			t.Fatalf("refWindowsUS = %v, want %v", r.refWindowsUS, want)
		}
	}
}

func TestCalibrationKernelTimes(t *testing.T) {
	k, err := newCalibrator().kernelNs()
	if err != nil || k <= 0 {
		t.Fatalf("kernelNs = %g, %v", k, err)
	}
}

func TestSelfTimesSubtractsChildren(t *testing.T) {
	// window [0,100) holds dispatch [10,40) — which holds rx [15,25) —
	// and an aggregate of taps summing 12 ns.
	spans := []span{
		{name: "window", parent: -1, start: 0, dur: 100, count: 1},
		{name: "core.dispatch", parent: 0, start: 10, dur: 30, count: 1},
		{name: "modem.rx", parent: 1, start: 15, dur: 10, count: 1},
		{name: "core.tap", parent: 0, start: 50, dur: 12, count: 40},
		{name: "window", parent: -1, start: 100, dur: 50, count: 1},
	}
	got := selfTimes(spans)
	want := map[string]int64{"window": 100 - 30 - 12 + 50, "core.dispatch": 20, "modem.rx": 10, "core.tap": 12}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self[%s] = %d, want %d", k, got[k], v)
		}
	}
	dur, calls := totals(spans)
	if dur["window"] != 150 || calls["core.tap"] != 40 || calls["window"] != 2 {
		t.Errorf("totals: dur %v calls %v", dur, calls)
	}
	if d := callDurations(spans, "core.tap"); len(d) != 0 {
		t.Errorf("aggregate span counted as one call: %v", d)
	}
}

func TestTracerNestsAndAggregates(t *testing.T) {
	tr := newTracer()
	w := tr.beginWindow(0)
	d := tr.begin("core.dispatch")
	tr.add("sketch.update", tr.now(), 5)
	tr.add("sketch.update", tr.now(), 7)
	tr.end(d)
	tr.add("core.tap", tr.now(), 3)
	tr.end(w)
	if len(tr.spans) != 4 {
		t.Fatalf("got %d spans, want 4: %+v", len(tr.spans), tr.spans)
	}
	s := tr.spans
	if s[1].parent != 0 || s[2].parent != 1 || s[3].parent != 0 || tr.cur != -1 {
		t.Errorf("wrong nesting: %+v (cur %d)", s, tr.cur)
	}
	if s[2].dur != 12 || s[2].count != 2 {
		t.Errorf("aggregate = %+v, want dur 12 over 2 calls", s[2])
	}
}

func TestRoundSeedsDifferAndRepeat(t *testing.T) {
	if roundSeed(1, 0) == roundSeed(1, 1) || roundSeed(1, 0) == roundSeed(2, 0) {
		t.Error("round seeds collide")
	}
	if roundSeed(5, 3) != roundSeed(5, 3) || roundSeed(5, 3) < 0 {
		t.Error("round seed not a stable non-negative function of its inputs")
	}
}

// runBench runs the command in-process and returns its exit code and
// its last line of standard output.
func runBench(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	return code, lines[len(lines)-1], out.String() + errOut.String()
}

func metricNames(names [][2]string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = n[0]
	}
	sort.Strings(out)
	return out
}

func TestSmokeEveryWorkloadPrintsItsMetrics(t *testing.T) {
	for _, wl := range workloads {
		for _, trace := range []string{"0", "1"} {
			wl, trace := wl, trace
			t.Run(wl.name+"/trace"+trace, func(t *testing.T) {
				spans := filepath.Join(t.TempDir(), "spans.csv.gz")
				code, last, all := runBench(t, "--workload", wl.name, "--seed", "3", "--seconds", "0.01",
					"--trace", trace, "--tiny", "--spans", spans)
				if code != 0 {
					t.Fatalf("exit %d:\n%s", code, all)
				}
				var res result
				if err := json.Unmarshal([]byte(last), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, last)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("result %+v", res)
				}
				want := metricNames(endToEndNames)
				if trace == "1" {
					want = metricNames(perLayerNames)
				}
				var got []string
				for k, m := range res.Metrics {
					got = append(got, k)
					if m.Unit == "" || math.IsNaN(m.Value) {
						t.Errorf("metric %s = %+v", k, m)
					}
				}
				sort.Strings(got)
				if strings.Join(got, ",") != strings.Join(want, ",") {
					t.Errorf("printed metrics\n %v\nwant\n %v", got, want)
				}
				if trace == "1" {
					if fi, err := os.Stat(spans); err != nil || fi.Size() == 0 {
						t.Errorf("spans not written: %v", err)
					}
				}
			})
		}
	}
}

func TestCorruptedExpectedOutputFailsTheCheck(t *testing.T) {
	for _, wl := range workloads {
		wl := wl
		t.Run(wl.name, func(t *testing.T) {
			code, last, all := runBench(t, "--workload", wl.name, "--seed", "3", "--seconds", "0.01",
				"--tiny", "--corrupt-expected")
			if code == 0 {
				t.Fatalf("corrupted expected output passed the check:\n%s", all)
			}
			if strings.HasPrefix(last, "{") {
				t.Errorf("a failed run printed a result: %s", last)
			}
			if !strings.Contains(all, "FAIL") {
				t.Errorf("no failure reported:\n%s", all)
			}
		})
	}
}

func TestBadArgumentsFail(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nonsuch"},
		{"--workload", "music-batch", "--trace", "2"},
		{"--workload", "music-batch", "--seconds", "0"},
	} {
		if code, last, _ := runBench(t, args...); code == 0 || strings.HasPrefix(last, "{") {
			t.Errorf("%v: exit %d, last line %q", args, code, last)
		}
	}
}

// The benchmark's declaration must list exactly what the command prints.
func TestDeclarationMatchesCommand(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("declared %d workloads, command has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: declared %q, command has %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, decl []struct{ Name, Unit string }, names [][2]string) {
		if len(decl) != len(names) {
			t.Errorf("%s: declared %d metrics, command prints %d", kind, len(decl), len(names))
			return
		}
		for i, m := range decl {
			if m.Name != names[i][0] || m.Unit != names[i][1] {
				t.Errorf("%s %d: declared %s [%s], command prints %s [%s]", kind, i, m.Name, m.Unit, names[i][0], names[i][1])
			}
		}
	}
	check("end_to_end", decl.EndToEnd, endToEndNames)
	check("per_layer", decl.PerLayer, perLayerNames)
}
