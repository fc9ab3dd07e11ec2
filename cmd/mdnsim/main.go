// Command mdnsim runs a Music-Defined Networking deployment described
// in a JSON scenario file: topology, applications, traffic, and room
// noise. It prints a run report (text or JSON). With -stream the
// controller runs the streaming low-latency detection path — the
// analysis window advances by -hop seconds per step instead of a whole
// 50 ms window — and the report gains sound-to-detection latency
// percentiles. With -chaos it instead
// runs the built-in chaos sweep: the end-to-end pipelines under a
// range of injected control-channel fault rates. With -modem it runs
// the acoustic data channel's FEC × symbol-corruption sweep. With
// With -traffic it runs the exact-vs-sketch analytics sweep over
// flow-count scales on the pooled traffic engine. With
// -metrics the run's telemetry registry is dumped to stdout after the
// report, in Prometheus text exposition format. -cpuprofile and
// -memprofile write runtime/pprof profiles of the run.
//
// Usage:
//
//	mdnsim -f scenarios/telemetry.json
//	mdnsim -f scenario.json -json
//	mdnsim -f scenario.json -stream -hop 0.01
//	cat scenario.json | mdnsim
//	mdnsim -chaos -seed 7
//	mdnsim -chaos -chaos-drops 0,0.3 -chaos-duration 10 -json
//	mdnsim -chaos -workers 4
//	mdnsim -chaos -metrics
//	mdnsim -modem -seed 7
//	mdnsim -modem -modem-rates 0,0.05 -modem-fecs none,rs_p48 -json
//	mdnsim -traffic -seed 7
//	mdnsim -traffic -traffic-flows 10000,100000 -workers 4 -json
//	mdnsim -f scenarios/telemetry.json -stream -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"mdn/internal/profile"
	"mdn/internal/scenario"
	"mdn/internal/telemetry"
)

// options holds the parsed command line.
type options struct {
	file       string
	jsonOut    bool
	chaos      bool
	drops      string
	duration   float64
	seed       int64
	workers    int
	metrics    bool
	stream     bool
	hop        float64
	modem      bool
	modemRates string
	modemFECs  string
	traffic    bool
	flows      string
	cpuProfile string
	memProfile string
}

// parseFlags parses the command line (without the program name).
func parseFlags(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("mdnsim", flag.ContinueOnError)
	fs.StringVar(&o.file, "f", "", "scenario JSON file (default: stdin)")
	fs.BoolVar(&o.jsonOut, "json", false, "emit the report as JSON")
	fs.BoolVar(&o.chaos, "chaos", false, "run the chaos sweep instead of a scenario file")
	fs.StringVar(&o.drops, "chaos-drops", "", "comma-separated drop probabilities to sweep (default 0,0.1,0.3,0.5)")
	fs.Float64Var(&o.duration, "chaos-duration", 0, "simulated seconds per chaos point (default 30)")
	fs.Int64Var(&o.seed, "seed", 1, "chaos sweep seed")
	fs.IntVar(&o.workers, "workers", 0, "chaos sweep worker pool size (0 = GOMAXPROCS, 1 = serial); the report is identical at any setting")
	fs.BoolVar(&o.metrics, "metrics", false, "dump the run's telemetry in Prometheus text format after the report")
	fs.BoolVar(&o.stream, "stream", false, "run the streaming low-latency detection path (scenario, chaos and modem runs)")
	fs.Float64Var(&o.hop, "hop", 0, "streaming hop in seconds (default 0.01; must subdivide the 50 ms window into whole samples)")
	fs.BoolVar(&o.modem, "modem", false, "run the modem FEC × symbol-corruption sweep instead of a scenario file")
	fs.StringVar(&o.modemRates, "modem-rates", "", "comma-separated symbol corruption rates to sweep (default 0,0.02,0.05,0.1)")
	fs.StringVar(&o.modemFECs, "modem-fecs", "", "comma-separated FEC schemes to sweep (default none,hamming7_4,rs_p48)")
	fs.BoolVar(&o.traffic, "traffic", false, "run the exact-vs-sketch traffic analytics sweep instead of a scenario file")
	fs.StringVar(&o.flows, "traffic-flows", "", "comma-separated flow counts to sweep (default 10000,100000,1000000)")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile at the end of the run to this file")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		os.Exit(2) // the flag set has printed the error and usage
	}
	stop, err := profile.Start(o.cpuProfile, o.memProfile)
	if err != nil {
		fatal(err)
	}
	run(o)
	if err := stop(); err != nil {
		fatal(err)
	}
}

// run executes the mode the options select. Errors exit through fatal,
// so profiles are written only for runs that complete.
func run(o *options) {
	if o.hop != 0 && !o.stream {
		fatal(fmt.Errorf("-hop requires -stream"))
	}
	modes := 0
	for _, m := range []bool{o.chaos, o.modem, o.traffic} {
		if m {
			modes++
		}
	}
	if modes > 1 {
		fatal(fmt.Errorf("-chaos, -modem and -traffic are mutually exclusive"))
	}
	if o.traffic {
		runTrafficSweep(o.seed, o.flows, o.workers, o.jsonOut, o.metrics)
		return
	}
	if o.modem {
		streamHop := 0.0
		if o.stream {
			streamHop = o.hop
			if streamHop == 0 {
				streamHop = scenario.DefaultHopS
			}
		}
		runModemSweep(o.seed, o.modemRates, o.modemFECs, streamHop, o.workers, o.jsonOut)
		return
	}
	if o.chaos {
		streamHop := 0.0
		if o.stream {
			streamHop = o.hop
			if streamHop == 0 {
				streamHop = scenario.DefaultHopS
			}
		}
		runChaos(o.seed, o.drops, o.duration, streamHop, o.workers, o.jsonOut, o.metrics)
		return
	}

	var in io.Reader = os.Stdin
	if o.file != "" {
		f, err := os.Open(o.file)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	cfg, err := scenario.Load(in)
	if err != nil {
		fatal(err)
	}
	if o.stream {
		cfg.Stream = true
		if o.hop != 0 {
			cfg.HopS = o.hop
		}
		if err := cfg.Validate(); err != nil {
			fatal(err)
		}
	}
	rep, err := scenario.Run(cfg)
	if err != nil {
		fatal(err)
	}
	if o.jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
		printMetrics(rep.Metrics, o.metrics)
		return
	}
	printReport(rep)
	printMetrics(rep.Metrics, o.metrics)
}

func runChaos(seed int64, drops string, duration, streamHop float64, workers int, jsonOut, metrics bool) {
	cfg := scenario.ChaosConfig{Seed: seed, DurationS: duration, Workers: workers, StreamHop: streamHop}
	if drops != "" {
		for _, s := range strings.Split(drops, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				fatal(fmt.Errorf("parsing -chaos-drops: %w", err))
			}
			cfg.DropRates = append(cfg.DropRates, v)
		}
	}
	rep, err := scenario.RunChaos(cfg)
	if err != nil {
		fatal(err)
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
		printMetrics(rep.Metrics, metrics)
		return
	}
	fmt.Print(rep.Table())
	printMetrics(rep.Metrics, metrics)
}

func runModemSweep(seed int64, rates, fecs string, streamHop float64, workers int, jsonOut bool) {
	cfg := scenario.ModemSweepConfig{Seed: seed, Workers: workers, StreamHop: streamHop}
	if rates != "" {
		for _, s := range strings.Split(rates, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				fatal(fmt.Errorf("parsing -modem-rates: %w", err))
			}
			cfg.CorruptRates = append(cfg.CorruptRates, v)
		}
	}
	if fecs != "" {
		for _, s := range strings.Split(fecs, ",") {
			cfg.FECs = append(cfg.FECs, strings.TrimSpace(s))
		}
	}
	rep, err := scenario.RunModemSweep(cfg)
	if err != nil {
		fatal(err)
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Print(rep.Table())
}

func runTrafficSweep(seed int64, flows string, workers int, jsonOut, metrics bool) {
	cfg := scenario.TrafficSweepConfig{Seed: seed, Workers: workers}
	if flows != "" {
		for _, s := range strings.Split(flows, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fatal(fmt.Errorf("parsing -traffic-flows: %w", err))
			}
			cfg.FlowCounts = append(cfg.FlowCounts, v)
		}
	}
	reg := telemetry.New()
	rep, err := scenario.RunTrafficSweep(cfg, reg)
	if err != nil {
		fatal(err)
	}
	snap := reg.Snapshot()
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
		printMetrics(&snap, metrics)
		return
	}
	fmt.Print(rep.Table())
	printMetrics(&snap, metrics)
}

// printMetrics dumps the telemetry snapshot in Prometheus text format
// when -metrics is set. A blank line separates it from the report so
// the dump itself stays parseable.
func printMetrics(snap *telemetry.Snapshot, enabled bool) {
	if !enabled || snap == nil {
		return
	}
	fmt.Println()
	if err := snap.WriteText(os.Stdout); err != nil {
		fatal(err)
	}
}

func printReport(rep *scenario.Report) {
	fmt.Printf("scenario %q: %.1f s simulated, %d capture windows, %d tone detections\n\n",
		rep.Name, rep.DurationS, rep.WindowsAnalysed, rep.TonesDetected)
	fmt.Println("hosts:")
	for _, h := range rep.Hosts {
		fmt.Printf("  %-8s tx %6d pkts / %9d B    rx %6d pkts / %9d B\n",
			h.Name, h.TxPackets, h.TxBytes, h.RxPackets, h.RxBytes)
	}
	fmt.Println("\napplications:")
	for _, a := range rep.Apps {
		fmt.Printf("  %s on %s: %d event(s)\n", a.Type, a.Switch, len(a.Events))
		const maxShown = 12
		shown := len(a.Events)
		if shown > maxShown {
			shown = maxShown
		}
		for _, e := range a.Events[:shown] {
			fmt.Printf("    %s\n", e)
		}
		if rest := len(a.Events) - shown; rest > 0 {
			fmt.Printf("    ... and %d more\n", rest)
		}
	}
	if h := rep.Health; h != nil {
		fmt.Printf("\ncontroller health: %s", h.StateName)
		if len(h.Reasons) > 0 {
			fmt.Printf(" (%s)", strings.Join(h.Reasons, "; "))
		}
		fmt.Printf("\n  %d window(s), %d recovered panic(s), %d quarantined, %d error(s) logged\n",
			h.Windows, h.HandlerPanics, len(h.Quarantined), h.ErrorsTotal)
		for _, w := range h.Wire {
			fmt.Printf("  wire %-8s %-8s sent %6d  dropped %5d  corrupted %5d\n",
				w.Kind, w.Name, w.Sent, w.Dropped, w.Corrupted)
		}
	}
	if len(rep.Devices) > 0 {
		fmt.Println("\ndevices:")
		for _, d := range rep.Devices {
			fmt.Printf("  %-8s %-8s %-8s", d.Kind, d.Name, d.State)
			if d.Kind == "mic" {
				fmt.Printf(" noise %.6f", d.NoiseFloor)
				if d.Floor > 0 {
					fmt.Printf(" floor %.6f", d.Floor)
				}
				if d.Quarantined {
					fmt.Print(" QUARANTINED")
				}
			} else {
				if d.DetuneRatio != 0 && d.DetuneRatio != 1 {
					fmt.Printf(" detune ×%.4f", d.DetuneRatio)
				}
				if d.Muted {
					fmt.Print(" MUTED")
				}
			}
			fmt.Printf("  recal %d quarantine %d rejoin %d rekey %d\n",
				d.Recalibrations, d.Quarantines, d.Rejoins, d.Rekeys)
		}
	}
	if s := rep.Stream; s != nil {
		fmt.Printf("\nstreaming path: hop %.0f ms, %d hop(s), %d onset(s), %d capture error(s)\n",
			s.HopS*1000, s.Hops, s.Onsets, s.CaptureErrors)
		fmt.Printf("  sound-to-detection latency: p50 %.1f ms, p99 %.1f ms (sim time)\n",
			s.DetectP50*1000, s.DetectP99*1000)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mdnsim:", err)
	os.Exit(1)
}
