package main

import (
	"math"
	"math/rand"

	"mdn/internal/acoustic"
	"mdn/internal/core"
	"mdn/internal/mp"
	"mdn/internal/netsim"
)

// Scan schedule of music-batch: a 12-port sweep every scanPeriod
// seconds, starting scanOffset into a port-scan interval so the whole
// sweep and its onset confirmations land inside one 2 s interval.
const (
	scanPeriod = 10.0
	scanOffset = 2.1
	scanPorts  = 12
	scanStep   = 0.1
)

// buildMusicBatch is the telemetry-under-music world of
// scenarios/telemetry.json scaled up: one switch running heavy-hitter,
// port-scan and heartbeat on ~25 watched tones while a pop song plays,
// batch 50 ms windows on one microphone, CBR elephants, Poisson and CBR
// mice, and a port sweep every 10 s.
func buildMusicBatch(seed int64, v variant, tr *tracer) (*world, error) {
	dur := 30.0
	if v.tiny {
		dur = 5
	}
	w := newWorld(seed, tr, dur, 0)
	rng := rand.New(rand.NewSource(seed))
	plan := core.DefaultPlan()

	sw := netsim.NewSwitch(w.sim, "s1")
	sp := w.room.AddSpeaker("s1", acoustic.Position{X: 1.2})
	voice := core.NewVoice(w.sim, mp.NewSounder(mp.NewPi(w.sim, sp, 0.002)))
	w.voices = append(w.voices, voice)
	w.emitters["s1"] = true
	h1 := netsim.NewHost(w.sim, "h1", netsim.MustAddr("10.0.0.1"))
	h2 := netsim.NewHost(w.sim, "h2", netsim.MustAddr("10.0.0.2"))
	netsim.Connect(w.sim, h1, 1, sw, 1, 1e9, 0.0001, 0)
	netsim.Connect(w.sim, h2, 1, sw, 2, 1e9, 0.0001, 0)
	sw.InstallRule(netsim.Rule{Priority: 1, Match: netsim.Match{Dst: h2.Addr}, Action: netsim.Output(2)})

	mgr := core.NewManager(w.sim, w.mics[0], plan)
	w.ctrl = mgr.Ctrl
	hh, err := core.NewHeavyHitter(plan, "s1", voice, 12)
	if err != nil {
		return nil, err
	}
	ps, err := core.NewPortScan(plan, "s1", voice, 8000, scanPorts)
	if err != nil {
		return nil, err
	}
	ps.Threshold = 8
	hb := core.NewHeartbeat()
	hbFreq, err := hb.Register(plan, "s1", voice)
	if err != nil {
		return nil, err
	}
	if _, err := hb.StartDevice(w.sim, hbFreq, 0.1); err != nil {
		return nil, err
	}
	for _, app := range []core.App{hh, ps, hb} {
		if err := mgr.Deploy(app); err != nil {
			return nil, err
		}
	}
	// Calibrated above the song's partials at the mic (~0.003) and
	// below the switch tones (~0.026), as in examples/telemetry.
	w.ctrl.Detector.MinAmplitude = 0.008

	// Ground truth for the heavy-hitter check: tapped packets per
	// bucket per 1 s counting interval.
	intervals := int(dur) + 1
	perBucket := make([][12]int, intervals)
	sw.Tap = w.timedTap(func(p *netsim.Packet, in int) {
		if k := int(w.sim.Now() / hh.Interval); k < intervals {
			perBucket[k][hh.BucketOf(p.Flow)]++
		}
		hh.Tap(p, in)
		ps.Tap(p, in)
	})

	w.dispatchPre()
	mgr.Start(0)
	w.dispatchPost()
	w.subscribeRecorder()
	w.startReplay()

	w.room.AddNoise(w.render(func() *acoustic.NoiseSource {
		src := core.PopSongNoise(44100, 5, 0.01, seed)
		src.Pos = acoustic.Position{X: -2, Y: 1}
		return src
	}))

	flow := func(srcPort uint16) netsim.FiveTuple {
		return netsim.FiveTuple{Src: h1.Addr, Dst: h2.Addr, SrcPort: srcPort, DstPort: 80, Proto: netsim.ProtoTCP}
	}
	for i := 0; i < 3; i++ {
		netsim.StartCBR(w.sim, h1, flow(uint16(5000+rng.Intn(1000))), 250, 1500, 0.2+0.05*rng.Float64(), dur)
	}
	for i := 0; i < 3; i++ {
		netsim.StartPoisson(w.sim, h1, flow(uint16(20000+rng.Intn(20000))), 1.2, 300, 0.2, dur, rng.Int63())
	}
	for i := 0; i < 2; i++ {
		netsim.StartCBR(w.sim, h1, flow(uint16(40000+rng.Intn(20000))), 1, 300, 0.2+rng.Float64(), dur)
	}
	var scans []float64
	for at := scanOffset; at+2 <= dur; at += scanPeriod {
		base := netsim.FiveTuple{Src: netsim.MustAddr("10.0.0.66"), Dst: h2.Addr, SrcPort: 4444, Proto: netsim.ProtoTCP}
		netsim.StartPortScan(w.sim, h1, base, 8000, scanPorts, scanStep, at)
		scans = append(scans, at)
	}

	w.finish = func(r *roundResult) {
		// Heavy hitters. A bucket with fewer than Threshold packets over
		// an interval and the one before cannot reach Threshold onsets,
		// so it must not be flagged then. Every bucket carrying an
		// elephant (≥50 packets in each interval) must be flagged during
		// the round. Not in every interval: the onset filter re-arms only
		// after a silent window, and other tones' onset splatter and the
		// song's partials often fill it, so an elephant's bucket is
		// undercounted in some intervals (README.md, "Findings").
		flagged := make(map[[2]int]bool)
		everFlagged := make(map[int]bool)
		for _, rep := range hh.Reports {
			flagged[[2]int{int(math.Round(rep.Time)), rep.Bucket}] = true
			everFlagged[rep.Bucket] = true
			r.note(rep.Time, float64(rep.Bucket), float64(rep.Count))
		}
		r.expect(hh.HistoryDropped == 0, "heavy-hitter history overflowed")
		heavy := make(map[int]bool)
		for k := 2; k <= int(dur); k++ {
			for b := 0; b < 12; b++ {
				cur, prev := perBucket[k-1][b], perBucket[k-2][b]
				if cur >= 50 && prev >= 50 {
					heavy[b] = true
				}
				if cur+prev < hh.Threshold {
					r.expect(!flagged[[2]int{k, b}], "light bucket %d flagged at t=%ds", b, k)
				}
			}
		}
		for b := range heavy {
			r.expect(everFlagged[b], "elephant bucket %d never flagged", b)
		}
		// Port scans: one alert per sweep, inside the sweep's interval,
		// and none elsewhere.
		for _, a := range ps.Alerts {
			r.note(a.Time, float64(a.DistinctPorts))
		}
		if v.corrupt {
			scans = scans[1:]
		}
		matched := 0
		for _, at := range scans {
			n := 0
			end := math.Floor(at/ps.Interval)*ps.Interval + ps.Interval
			for _, a := range ps.Alerts {
				if a.Time >= at && a.Time < end {
					n++
				}
			}
			r.expect(n == 1, "scan at t=%.1fs raised %d alerts", at, n)
			matched += n
		}
		r.expect(len(ps.Alerts) == matched, "%d scan alerts outside any scan", len(ps.Alerts)-matched)
		r.expect(len(hb.Alerts) == 0, "heartbeat reported a live switch silent")
		r.counts["core.app_events"] = float64(len(hh.Reports) + len(ps.Alerts) + len(hb.Alerts))
		deliverAll(r, []*netsim.Host{h2}, []*netsim.Host{h1}, sw)
	}
	return w, nil
}

// deliverAll records the packets delivered to the sinks and fails one
// operation per packet lost anywhere: dropped at a full queue, on a
// table miss or in a forwarding loop.
func deliverAll(r *roundResult, sinks, sources []*netsim.Host, switches ...*netsim.Switch) {
	var rx, tx uint64
	for _, h := range sinks {
		rx += h.RxPackets
	}
	for _, h := range sources {
		tx += h.TxPackets
	}
	var drops uint64
	for _, h := range append(append([]*netsim.Host(nil), sinks...), sources...) {
		drops += h.Port().Out.Drops()
	}
	for _, sw := range switches {
		for _, p := range sw.Ports() {
			drops += sw.Port(p).Out.Drops()
		}
		drops += sw.TableMisses + sw.LoopDrops
	}
	r.pkts = rx
	r.counts["netsim.packets"] = float64(rx)
	r.counts["netsim.drops"] = float64(drops)
	r.attempted += int(tx)
	if drops > 0 {
		r.fail("%d packets dropped", drops)
		r.failed += int(drops) - 1
	}
	r.note(float64(rx))
}
