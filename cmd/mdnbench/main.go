// Command mdnbench regenerates the paper's evaluation: every figure
// (2a–7) and the in-text quantitative claims, printed as
// paper-vs-measured rows with ASCII renditions of each figure's
// series.
//
// Usage:
//
//	mdnbench              # run everything
//	mdnbench -run fig4a   # run one experiment
//	mdnbench -list        # list experiment IDs
//	mdnbench -quiet       # rows only, no charts
//	mdnbench -run fig2b -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mdn/internal/audio"
	"mdn/internal/experiments"
	"mdn/internal/profile"
	"mdn/internal/viz"
)

// writeWAV stores a capture for offline listening/inspection.
func writeWAV(path string, b *audio.Buffer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return audio.EncodeWAV(f, b)
}

// options holds the parsed command line.
type options struct {
	run        string
	list       bool
	quiet      bool
	jsonOut    bool
	spectro    bool
	markdown   bool
	wavDir     string
	cpuProfile string
	memProfile string
}

func main() {
	var o options
	flag.StringVar(&o.run, "run", "", "run only the experiment with this ID")
	flag.BoolVar(&o.list, "list", false, "list experiment IDs and exit")
	flag.BoolVar(&o.quiet, "quiet", false, "print summary rows only, no charts")
	flag.BoolVar(&o.jsonOut, "json", false, "emit results as a JSON array on stdout")
	flag.BoolVar(&o.spectro, "spectro", false, "render ASCII mel spectrograms of experiment audio")
	flag.BoolVar(&o.markdown, "markdown", false, "emit results as markdown tables on stdout")
	flag.StringVar(&o.wavDir, "wav", "", "write each experiment's controller-mic audio as WAV into this directory")
	flag.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
	flag.StringVar(&o.memProfile, "memprofile", "", "write a heap profile at the end of the run to this file")
	flag.Parse()

	stop, err := profile.Start(o.cpuProfile, o.memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mdnbench:", err)
		os.Exit(1)
	}
	code := run(o)
	if err := stop(); err != nil {
		fmt.Fprintln(os.Stderr, "mdnbench:", err)
		code = 1
	}
	os.Exit(code)
}

// run executes the selected experiments and returns the exit status.
func run(o options) int {
	all := experiments.All()
	if o.list {
		for _, e := range all {
			fmt.Printf("%-14s %s\n", e.ID, e.Title)
		}
		return 0
	}
	if o.run != "" {
		e, ok := experiments.ByID(o.run)
		if !ok {
			fmt.Fprintf(os.Stderr, "mdnbench: unknown experiment %q (try -list)\n", o.run)
			return 2
		}
		all = []experiments.Experiment{e}
	}

	if o.markdown {
		var results []*experiments.Result
		failures := 0
		for _, e := range all {
			r := e.Run()
			results = append(results, r)
			if !r.Pass() {
				failures++
			}
		}
		fmt.Print(experiments.MarkdownTable(results))
		if failures > 0 {
			return 1
		}
		return 0
	}

	if o.jsonOut {
		type jsonResult struct {
			*experiments.Result
			Pass    bool    `json:"pass"`
			Seconds float64 `json:"seconds"`
		}
		var results []jsonResult
		failures := 0
		for _, e := range all {
			start := time.Now()
			r := e.Run()
			results = append(results, jsonResult{
				Result: r, Pass: r.Pass(), Seconds: time.Since(start).Seconds(),
			})
			if !r.Pass() {
				failures++
			}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintln(os.Stderr, "mdnbench:", err)
			return 1
		}
		if failures > 0 {
			return 1
		}
		return 0
	}

	failures := 0
	for _, e := range all {
		start := time.Now()
		r := e.Run()
		elapsed := time.Since(start)
		out := experiments.Render(r)
		if o.quiet {
			lines := strings.Split(out, "\n")
			var kept []string
			for _, l := range lines {
				if !strings.HasPrefix(l, "  |") && !strings.HasPrefix(l, "  +") &&
					!strings.HasPrefix(l, "  --") {
					kept = append(kept, l)
				}
			}
			out = strings.Join(kept, "\n")
		}
		fmt.Print(out)
		if o.spectro && r.Audio != nil {
			mel := r.MelSpectrogram(64, 8000)
			if mel != nil {
				fmt.Print(viz.SpectrogramView("  mel spectrogram: "+r.AudioLabel,
					mel, 0, r.Audio.Duration(), 50, 8000, 24, 64))
			}
		}
		if o.wavDir != "" && r.Audio != nil {
			path := filepath.Join(o.wavDir, r.ID+".wav")
			if err := writeWAV(path, r.Audio); err != nil {
				fmt.Fprintln(os.Stderr, "mdnbench:", err)
				failures++
			} else {
				fmt.Printf("  wrote %s (%s)\n", path, r.AudioLabel)
			}
		}
		fmt.Printf("  (%.2fs)\n\n", elapsed.Seconds())
		if !r.Pass() {
			failures++
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "mdnbench: %d experiment(s) failed shape checks\n", failures)
		return 1
	}
	return 0
}
