package scenario

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"mdn/internal/core"
	"mdn/internal/telemetry"
)

// chaosTestConfig is small enough for CI but long enough that every
// pipeline crosses the health monitor's minimum wire sample.
func chaosTestConfig() ChaosConfig {
	return ChaosConfig{
		Seed:      7,
		DropRates: []float64{0, 0.3, 0.5},
		DurationS: 10,
	}
}

func TestChaosSweepIsDeterministic(t *testing.T) {
	a, err := RunChaos(chaosTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChaos(chaosTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The JSON report is the determinism contract: it excludes the
	// wall-clock latency histograms (decode/dispatch time varies run
	// to run) and must be byte-identical for the same config.
	aj, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(aj) != string(bj) {
		t.Errorf("two identical sweeps diverged:\n%s\nvs\n%s", a.Table(), b.Table())
	}
	// Virtual-time telemetry is deterministic too: the flow-programming
	// latency histogram (Install→outcome on simulated time) must agree
	// between the sweeps, counts and sums alike.
	for _, m := range a.Metrics.Metrics {
		if m.Kind != "histogram" || !containsSubstr(m.Name, "mdn_flow_program_seconds") {
			continue
		}
		bm, ok := b.Metrics.Find(m.Name)
		if !ok {
			t.Errorf("%s missing from second sweep", m.Name)
			continue
		}
		if m.Count != bm.Count || m.Sum != bm.Sum {
			t.Errorf("%s diverged: count %d/%d sum %g/%g", m.Name, m.Count, bm.Count, m.Sum, bm.Sum)
		}
	}
}

// TestChaosParallelSweepByteIdenticalToSerial pins the worker-pool
// sweep to the serial one: same seed, same grid, same JSON bytes, for
// more than one seed. Fault streams derive from each point's grid
// position and every point owns its own simulation, so pool
// scheduling must be invisible in the report.
func TestChaosParallelSweepByteIdenticalToSerial(t *testing.T) {
	for _, seed := range []int64{7, 41} {
		cfg := ChaosConfig{
			Seed:      seed,
			DropRates: []float64{0, 0.3},
			DurationS: 8,
		}
		cfg.Workers = 1
		serial, err := RunChaos(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Workers = 4
		par, err := RunChaos(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sj, err := json.Marshal(serial)
		if err != nil {
			t.Fatal(err)
		}
		pj, err := json.Marshal(par)
		if err != nil {
			t.Fatal(err)
		}
		if string(sj) != string(pj) {
			t.Errorf("seed %d: parallel sweep diverged from serial:\n%s\nvs\n%s",
				seed, serial.Table(), par.Table())
		}
	}
}

// TestChaosStreamAtFullWindowByteIdenticalToBatch runs the chaos sweep
// on the batch path and on the streaming path with the hop set to the
// full 50 ms window. The JSON reports must be byte-identical: at
// hop == window the streaming pipeline makes the same capture spans,
// the same float operations, and the same dispatches as the batch
// loop, so every recall figure, health verdict, and wire counter
// agrees — the equivalence half of the CI streaming smoke.
func TestChaosStreamAtFullWindowByteIdenticalToBatch(t *testing.T) {
	// devicehealth is excluded: its speaker re-key restarts the stream
	// pipeline, which re-primes at the live edge — deliberately not
	// byte-identical to the batch window loop.
	cfg := ChaosConfig{Seed: 7, DropRates: []float64{0, 0.3}, DurationS: 8,
		Scenarios: []string{"portknock", "heavyhitter", "loadbalance", "heartbeat"}}
	batch, err := RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.StreamHop = 0.050
	streamed, err := RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	sj, err := json.Marshal(streamed)
	if err != nil {
		t.Fatal(err)
	}
	if string(bj) != string(sj) {
		t.Errorf("streaming at hop==window diverged from batch:\n%s\nvs\n%s",
			streamed.Table(), batch.Table())
	}
}

func TestChaosRejectsMisalignedStreamHop(t *testing.T) {
	cfg := chaosTestConfig()
	cfg.StreamHop = 0.012
	if _, err := RunChaos(cfg); err == nil {
		t.Fatal("misaligned stream hop accepted")
	}
}

// BenchmarkChaosSweep measures the sweep wall clock serial versus
// pooled — the speedup evidence for BENCH_PR5.json. On a single-core
// host the pooled rows pin scheduling overhead instead of scaling.
func BenchmarkChaosSweep(b *testing.B) {
	for _, w := range []int{1, 4} {
		name := "serial"
		if w > 1 {
			name = "workers=4"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := chaosTestConfig()
				cfg.DurationS = 5
				cfg.Workers = w
				if _, err := RunChaos(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func containsSubstr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestChaosGracefulDegradation(t *testing.T) {
	rep, err := RunChaos(chaosTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	byScenario := make(map[string]map[float64]ChaosPoint)
	for _, p := range rep.Points {
		if byScenario[p.Scenario] == nil {
			byScenario[p.Scenario] = make(map[float64]ChaosPoint)
		}
		byScenario[p.Scenario][p.DropRate] = p
	}
	for _, name := range ChaosScenarioNames {
		if name == "devicehealth" {
			// Hardware faults, not wire faults: it ends Degraded by
			// design (the detune persists) and is asserted separately
			// in TestChaosDeviceHealthSelfHeals.
			continue
		}
		pts := byScenario[name]
		if len(pts) != 3 {
			t.Fatalf("%s: %d points, want 3", name, len(pts))
		}
		clean, heavy := pts[0], pts[0.5]

		// A clean channel is healthy — the canary's recovered panics
		// must not degrade it — and detection is near-perfect.
		if clean.Health != "healthy" {
			t.Errorf("%s at 0%%: health %s (%v), want healthy", name, clean.Health, clean.Reasons)
		}
		if clean.Recall < 0.85 {
			t.Errorf("%s at 0%%: recall %.2f, want >= 0.85", name, clean.Recall)
		}
		if clean.RecoveredPanics == 0 {
			t.Errorf("%s at 0%%: canary panics not recorded", name)
		}

		// Degradation is graceful: recall never improves under loss,
		// and heavy loss is reported as Degraded — never Stalled, never
		// a quarantine, never an unrecovered panic (RunChaos returning
		// at all proves nothing escaped the supervisor).
		if heavy.Recall > clean.Recall {
			t.Errorf("%s: recall rose from %.2f to %.2f under 50%% drop", name, clean.Recall, heavy.Recall)
		}
		for _, rate := range []float64{0.3, 0.5} {
			p := pts[rate]
			if p.Health != "degraded" {
				t.Errorf("%s at %.0f%%: health %s (%v), want degraded",
					name, 100*rate, p.Health, p.Reasons)
			}
			if p.Health == "stalled" {
				t.Errorf("%s at %.0f%%: stalled — not graceful", name, 100*rate)
			}
			if p.Quarantined != 0 {
				t.Errorf("%s at %.0f%%: %d quarantined subscribers", name, 100*rate, p.Quarantined)
			}
			if p.WireDropped == 0 {
				t.Errorf("%s at %.0f%%: no wire drops recorded", name, 100*rate)
			}
		}
	}

	// The flow-programming pipelines must still land their rules at
	// every drop rate — that is what the retrying programmer buys.
	for _, name := range []string{"portknock", "loadbalance"} {
		for rate, p := range byScenario[name] {
			if p.Notes == "" || !containsInstalled(p.Notes) {
				t.Errorf("%s at %.0f%%: notes %q, want installed=true", name, 100*rate, p.Notes)
			}
		}
	}
}

func containsInstalled(notes string) bool {
	const want = "installed=true"
	for i := 0; i+len(want) <= len(notes); i++ {
		if notes[i:i+len(want)] == want {
			return true
		}
	}
	return false
}

// TestChaosDeviceHealthSelfHeals runs the hardware-fault pipeline on a
// clean wire and asserts the whole self-healing arc: the noisy
// microphone's threshold recalibrates, the mic is quarantined while
// deaf and rejoins after the repair, the detuned speaker is re-keyed
// and keeps delivering beats at its commanded frequency, and the point
// ends Degraded — naming the persistent speaker fault — never Stalled.
func TestChaosDeviceHealthSelfHeals(t *testing.T) {
	rep, err := RunChaos(ChaosConfig{
		Seed:      7,
		DropRates: []float64{0},
		DurationS: 12,
		Scenarios: []string{"devicehealth"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 1 {
		t.Fatalf("%d points, want 1", len(rep.Points))
	}
	p := rep.Points[0]
	if p.Health != "degraded" {
		t.Errorf("health %s (%v), want degraded", p.Health, p.Reasons)
	}
	speakerReason := false
	for _, r := range p.Reasons {
		if strings.Contains(r, "speaker") {
			speakerReason = true
		}
		if strings.Contains(r, "quarantined") {
			t.Errorf("mic still quarantined at end of run: %q", r)
		}
	}
	if !speakerReason {
		t.Errorf("reasons %v name no speaker fault", p.Reasons)
	}

	// 3 mics then 2 speakers, registration order.
	if len(p.Devices) != 5 {
		t.Fatalf("%d device rows, want 5: %+v", len(p.Devices), p.Devices)
	}
	byName := map[string]core.DeviceHealth{}
	for _, d := range p.Devices {
		byName[d.Kind+"/"+d.Name] = d
	}
	m1 := byName["mic/m1"]
	if m1.Recalibrations == 0 {
		t.Error("m1 never recalibrated its detection threshold")
	}
	if m1.Quarantines == 0 || m1.Rejoins == 0 {
		t.Errorf("m1 quarantines=%d rejoins=%d, want both > 0", m1.Quarantines, m1.Rejoins)
	}
	if m1.Quarantined || m1.State != "healthy" {
		t.Errorf("m1 after repair: state=%s quarantined=%v, want healthy and rejoined",
			m1.State, m1.Quarantined)
	}
	if h := byName["mic/controller"]; h.State != "healthy" || h.Quarantines != 0 {
		t.Errorf("healthy mic controller disturbed: %+v", h)
	}
	s2 := byName["speaker/s2"]
	if s2.State != "detuned" || s2.Rekeys == 0 {
		t.Errorf("s2 state=%s rekeys=%d, want detuned with a re-key", s2.State, s2.Rekeys)
	}
	if s2.DetuneRatio < 1.03 || s2.DetuneRatio > 1.05 {
		t.Errorf("s2 detune ratio %g, want ~1.04", s2.DetuneRatio)
	}
	if s1 := byName["speaker/s1"]; s1.State != "healthy" {
		t.Errorf("healthy speaker s1 classified %s", s1.State)
	}

	// Detection survived both faults: beats kept arriving (rewritten
	// back to the commanded frequency after the re-key).
	if p.GroundTruth < 50 {
		t.Errorf("ground truth %d, want ~79 beats", p.GroundTruth)
	}
	if p.Recall < 0.6 {
		t.Errorf("recall %.2f, want >= 0.6 across the fault window", p.Recall)
	}

	// The mdn_device_* series render and survive exposition-format
	// validation.
	txt := rep.Metrics.Text()
	if err := telemetry.ValidateText(strings.NewReader(txt)); err != nil {
		t.Errorf("metrics dump invalid: %v", err)
	}
	for _, want := range []string{
		`mdn_device_state{kind="mic",name="m1"}`,
		`mdn_device_state{kind="speaker",name="s2"}`,
		`mdn_device_noise_floor{mic="m1"}`,
		"mdn_device_transitions_total",
		"mdn_device_recalibrations_total",
		"mdn_device_quarantines_total",
		"mdn_device_rejoins_total",
		"mdn_device_rekeys_total",
	} {
		if !strings.Contains(txt, want) {
			t.Errorf("metrics dump missing %s", want)
		}
	}
}

func TestChaosUnknownScenarioRejected(t *testing.T) {
	_, err := RunChaos(ChaosConfig{Scenarios: []string{"nonsense"}, DurationS: 5})
	if err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

func TestChaosBadDropRateRejected(t *testing.T) {
	_, err := RunChaos(ChaosConfig{DropRates: []float64{1.5}, DurationS: 5})
	if err == nil {
		t.Fatal("drop rate 1.5 accepted")
	}
}

func TestSweepRejectsSeedCollidingGrids(t *testing.T) {
	many := make([]float64, gridStride+1)
	if _, err := RunChaos(ChaosConfig{DropRates: many, DurationS: 5}); err == nil {
		t.Error("chaos sweep with 101 drop rates accepted")
	}
	if _, err := RunModemSweep(ModemSweepConfig{CorruptRates: many}); err == nil {
		t.Error("modem sweep with 101 corrupt rates accepted")
	}
	fecs := make([]string, gridStride+1)
	for i := range fecs {
		fecs[i] = "none"
	}
	if _, err := RunModemSweep(ModemSweepConfig{FECs: fecs}); err == nil {
		t.Error("modem sweep with 101 FECs accepted")
	}
	flows := make([]int, trafficStride+1)
	for i := range flows {
		flows[i] = 1
	}
	if _, err := RunTrafficSweep(TrafficSweepConfig{FlowCounts: flows}, nil); err == nil {
		t.Error("traffic sweep with 1001 flow counts accepted")
	}

	// Every grid that is accepted keeps the seeds it always had, and
	// they are distinct cell by cell.
	if err := checkGrid("test", gridStride, gridStride); err != nil {
		t.Fatalf("%d×%d grid rejected: %v", gridStride, gridStride, err)
	}
	const seed = 7
	seen := make(map[int64]bool)
	for i := 0; i < gridStride; i++ {
		for j := 0; j < gridStride; j++ {
			got := gridSeed(seed, i, j)
			if want := mixSeed(seed*10000 + int64(i)*100 + int64(j)); got != want {
				t.Fatalf("cell (%d, %d) seed %d, want %d", i, j, got, want)
			}
			if seen[got] {
				t.Fatalf("cell (%d, %d) repeats a seed", i, j)
			}
			seen[got] = true
		}
	}
}

// TestSweepGridMatchesSerial checks the grid runner's contract once,
// over seeded random grids and worker counts: every slot holds the
// cell the serial run puts there, with its gridSeed, and no two cells
// share a seed.
func TestSweepGridMatchesSerial(t *testing.T) {
	type cell struct {
		i, j int
		seed int64
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		rows, cols, workers := 1+rng.Intn(20), 1+rng.Intn(20), 1+rng.Intn(8)
		seed := rng.Int63n(1 << 40)
		run := func(workers int) []cell {
			out, err := sweepGrid("test", seed, rows, cols, workers, func(i, j int, seed int64) cell {
				return cell{i, j, seed}
			})
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		serial, pooled := run(1), run(workers)
		seen := make(map[int64]bool, len(serial))
		for k, c := range serial {
			if c != (cell{k / cols, k % cols, gridSeed(seed, k/cols, k%cols)}) {
				t.Fatalf("%d×%d seed %d: slot %d holds %+v", rows, cols, seed, k, c)
			}
			if pooled[k] != c {
				t.Fatalf("%d×%d seed %d, %d workers: slot %d holds %+v, serial %+v",
					rows, cols, seed, workers, k, pooled[k], c)
			}
			if seen[c.seed] {
				t.Fatalf("%d×%d seed %d: slot %d repeats a seed", rows, cols, seed, k)
			}
			seen[c.seed] = true
		}
	}
}

// TestSweepAndScenarioLeaveNoGoroutines: a fleet sweep and a fleet
// scenario, batch and streaming, return with every goroutine they
// started stopped.
func TestSweepAndScenarioLeaveNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	settled := func(what string) {
		t.Helper()
		n := runtime.NumGoroutine()
		for wait := 0; n > base && wait < 100; wait++ {
			time.Sleep(10 * time.Millisecond)
			n = runtime.NumGoroutine()
		}
		if n > base {
			t.Fatalf("%s: %d goroutines running, %d before", what, n, base)
		}
	}
	if _, err := RunChaos(ChaosConfig{Seed: 7, DropRates: []float64{0}, DurationS: 8,
		Scenarios: []string{"devicehealth"}, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	settled("chaos devicehealth")
	for _, stream := range []bool{false, true} {
		f, err := os.Open("../../scenarios/degrade.json")
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := Load(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		cfg.Stream = stream
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		settled(fmt.Sprintf("degrade.json stream=%v", stream))
	}
}

func TestScenarioFaultsConfigDegradesReportHealth(t *testing.T) {
	cfg := &Config{
		Name:      "faulty",
		Seed:      5,
		DurationS: 12,
		Switches:  []SwitchConfig{{Name: "s1", X: 1}},
		// A fast beat pushes enough messages through the wire for the
		// loss-rate health input to be judged within the short run.
		Apps:   []AppConfig{{Type: "heartbeat", Switch: "s1", PeriodS: 0.3}},
		Faults: &FaultsConfig{DropProb: 0.4},
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Health == nil {
		t.Fatal("report carries no health snapshot")
	}
	if rep.Health.StateName != "degraded" {
		t.Errorf("health = %s (%v), want degraded under 40%% drop",
			rep.Health.StateName, rep.Health.Reasons)
	}
	var sounders int
	for _, w := range rep.Health.Wire {
		if w.Kind == "sounder" {
			sounders++
			if w.Sent == 0 {
				t.Errorf("sounder %s never sent", w.Name)
			}
		}
	}
	if sounders != 1 {
		t.Errorf("%d sounders registered, want 1", sounders)
	}
}

func TestScenarioFaultsConfigValidation(t *testing.T) {
	cfg := &Config{
		Name:      "bad",
		DurationS: 5,
		Switches:  []SwitchConfig{{Name: "s1"}},
		Faults:    &FaultsConfig{DropProb: 2},
	}
	if err := cfg.Validate(); err == nil {
		t.Fatal("drop_prob 2 accepted")
	}
}
