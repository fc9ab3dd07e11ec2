package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoad feeds arbitrary bytes to the scenario loader, the one
// parser of input from outside the program. Load must never panic, and
// every config it accepts must run without panicking. The run is kept
// short by clamping the knobs that only set how much work it does —
// duration, traffic rates, scan lengths and heartbeat periods — not
// which code it reaches.
func FuzzLoad(f *testing.F) {
	seeds, err := filepath.Glob("../../scenarios/*.json")
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no seed scenarios: %v", err)
	}
	for _, p := range seeds {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		const maxDurationS, maxPPS, maxProbes, minPeriodS = 0.3, 1000.0, 1000, 0.05
		cfg.DurationS = min(cfg.DurationS, maxDurationS)
		for i := range cfg.Traffic {
			tr := &cfg.Traffic[i]
			tr.PPS = min(tr.PPS, maxPPS)
			tr.EndPPS = min(tr.EndPPS, maxPPS)
			tr.NumPorts = min(tr.NumPorts, maxProbes)
		}
		for i := range cfg.Apps {
			if a := &cfg.Apps[i]; a.PeriodS > 0 {
				a.PeriodS = max(a.PeriodS, minPeriodS)
			}
		}
		_, _ = Run(cfg) // errors are fine; a panic fails the fuzz case
	})
}
