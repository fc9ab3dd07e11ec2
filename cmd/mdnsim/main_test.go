package main

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"mdn/internal/scenario"
	"mdn/internal/telemetry"
)

// TestChaosMetricsDumpParses is the -metrics acceptance check: a chaos
// run under packet loss must produce a telemetry dump that parses as
// Prometheus text and carries a nonzero decode-latency histogram and
// nonzero openflow retry counters.
func TestChaosMetricsDumpParses(t *testing.T) {
	rep, err := scenario.RunChaos(scenario.ChaosConfig{
		Seed:      7,
		DropRates: []float64{0.3},
		DurationS: 8,
		Scenarios: []string{"portknock", "loadbalance"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics == nil {
		t.Fatal("chaos report carries no metrics snapshot")
	}
	text := rep.Metrics.Text()
	if err := telemetry.ValidateText(strings.NewReader(text)); err != nil {
		t.Fatalf("metrics dump does not parse: %v\n%s", err, text)
	}
	if v := sampleValue(t, text, `mdn_controller_decode_seconds_count`); v == 0 {
		t.Error("decode-latency histogram recorded no windows")
	}
	if v := sampleValue(t, text, `mdn_flow_retries_total\{switch="s1"\}`); v == 0 {
		t.Error("no flow-programming retries recorded under 30% drop")
	}
	if v := sampleValue(t, text, `mdn_controller_handler_panics_total`); v == 0 {
		t.Error("canary panics missing from the dump")
	}
}

// sampleValue extracts one sample's value from a Prometheus text dump.
// namePattern is a regexp matching the full series name including any
// labels.
func sampleValue(t *testing.T, text, namePattern string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + namePattern + ` (\S+)$`)
	m := re.FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("series %s missing from dump:\n%s", namePattern, text)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("series %s value %q: %v", namePattern, m[1], err)
	}
	return v
}

func TestParseFlagsProfiles(t *testing.T) {
	o, err := parseFlags([]string{"-chaos", "-seed", "7", "-cpuprofile", "cpu.pprof", "-memprofile", "mem.pprof"})
	if err != nil {
		t.Fatal(err)
	}
	if o.cpuProfile != "cpu.pprof" || o.memProfile != "mem.pprof" {
		t.Errorf("profiles = %q, %q; want cpu.pprof, mem.pprof", o.cpuProfile, o.memProfile)
	}
	if !o.chaos || o.seed != 7 {
		t.Errorf("chaos=%v seed=%d alongside the profile flags, want true, 7", o.chaos, o.seed)
	}
	o, err = parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.cpuProfile != "" || o.memProfile != "" || o.seed != 1 {
		t.Errorf("defaults: cpuprofile=%q memprofile=%q seed=%d, want no profiles and seed 1",
			o.cpuProfile, o.memProfile, o.seed)
	}
	if _, err := parseFlags([]string{"-cpuprofile"}); err == nil {
		t.Error("-cpuprofile without a file parsed")
	}
}
