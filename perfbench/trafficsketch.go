package main

import (
	"math"
	"math/rand"
	"net/netip"

	"mdn/internal/acoustic"
	"mdn/internal/core"
	"mdn/internal/mp"
	"mdn/internal/netsim"
)

// Traffic of traffic-sketch: Zipf-rate flows of minimum-size packets,
// a third of them aimed at the DDoS victim from distinct sources.
const (
	sketchFlows    = 100000
	sketchTotalPPS = 40000
	zipfS          = 1.0
)

// buildTrafficSketch pushes ~1e5 Zipf flows of 64 B packets through one
// switch with the packet pool on. The switch taps feed a heavy-hitter
// counting onsets in a count-min sketch and a DDoS-victim detector
// counting distinct source buckets in a HyperLogLog; both report over
// sound to a batch controller. Links are sized so nothing drops.
func buildTrafficSketch(seed int64, v variant, tr *tracer) (*world, error) {
	w, _, _, err := buildTrafficSketchWith(seed, v, tr, false)
	return w, err
}

// buildTrafficSketchWith builds the world with exact counters instead
// of sketches when exact is set: the oracle the sketch reports must
// equal.
func buildTrafficSketchWith(seed int64, v variant, tr *tracer, exact bool) (*world, *core.HeavyHitter, *core.SpreadDetector, error) {
	dur, flows := 6.0, sketchFlows
	if v.tiny {
		dur, flows = 2, 2000
	}
	w := newWorld(seed, tr, dur, 0)
	w.sim.EnablePacketPool()
	rng := rand.New(rand.NewSource(seed))
	plan := core.DefaultPlan()

	sw := netsim.NewSwitch(w.sim, "s1")
	sp := w.room.AddSpeaker("s1", acoustic.Position{X: 1})
	voice := core.NewVoice(w.sim, mp.NewSounder(mp.NewPi(w.sim, sp, 0.002)))
	w.voices = append(w.voices, voice)
	w.emitters["s1"] = true
	src := netsim.NewHost(w.sim, "h1", netsim.MustAddr("10.0.0.1"))
	server := netsim.NewHost(w.sim, "h2", netsim.MustAddr("10.0.0.2"))
	victim := netsim.NewHost(w.sim, "h3", netsim.MustAddr("10.0.0.3"))
	for i, h := range []*netsim.Host{src, server, victim} {
		netsim.Connect(w.sim, h, 1, sw, i+1, 1e10, 0.0001, 1<<20)
	}
	sw.InstallRule(netsim.Rule{Priority: 1, Match: netsim.Match{Dst: server.Addr}, Action: netsim.Output(2)})
	sw.InstallRule(netsim.Rule{Priority: 1, Match: netsim.Match{Dst: victim.Addr}, Action: netsim.Output(3)})

	mgr := core.NewManager(w.sim, w.mics[0], plan)
	w.ctrl = mgr.Ctrl
	hh, err := core.NewHeavyHitter(plan, "s1", voice, 12)
	if err != nil {
		return nil, nil, nil, err
	}
	sd, err := core.NewSpreadDetector(plan, "s1", voice, core.ModeDDoSVictim, victim.Addr, 8, 5)
	if err != nil {
		return nil, nil, nil, err
	}
	// Drawn in every build, so the exact oracle sees the same traffic.
	fcSeed, dcSeed := uint64(rng.Int63()), uint64(rng.Int63())
	if !exact {
		fc, err := core.NewSketchFlowCounter(0.01, 0.01, fcSeed)
		if err != nil {
			return nil, nil, nil, err
		}
		dc, err := core.NewSketchDistinctCounter(10, dcSeed)
		if err != nil {
			return nil, nil, nil, err
		}
		hh.SetFlowCounter(w.timedFlowCounter(fc))
		sd.SetDistinctCounter(w.timedDistinctCounter(dc))
	}
	for _, app := range []core.App{hh, sd} {
		if err := mgr.Deploy(app); err != nil {
			return nil, nil, nil, err
		}
	}
	sw.Tap = w.timedTap(func(p *netsim.Packet, in int) {
		hh.Tap(p, in)
		sd.Tap(p, in)
	})
	w.dispatchPre()
	mgr.Start(0)
	w.dispatchPost()
	w.subscribeRecorder()
	w.startReplay()

	w.room.AddNoise(w.render(func() *acoustic.NoiseSource { return core.OfficeNoise(44100, 3, seed) }))

	// Zipf rates over a seeded permutation, so the heaviest flows
	// differ between seeds.
	specs := make([]netsim.FlowSpec, flows)
	norm := 0.0
	for i := range specs {
		norm += math.Pow(float64(i+1), -zipfS)
	}
	perm := rng.Perm(flows)
	for i := range specs {
		rank := perm[i] + 1
		dst := server.Addr
		if i%3 == 0 {
			dst = victim.Addr
		}
		specs[i] = netsim.FlowSpec{
			Flow: netsim.FiveTuple{
				Src:     flowAddr(i),
				Dst:     dst,
				SrcPort: uint16(1024 + rng.Intn(60000)),
				DstPort: 443,
				Proto:   netsim.ProtoTCP,
			},
			PPS:  sketchTotalPPS * math.Pow(float64(rank), -zipfS) / norm,
			Size: 64,
		}
	}
	fs := netsim.StartFlowSet(w.sim, src, netsim.FlowSetConfig{Specs: specs, Start: 0.1, Stop: dur, Seed: rng.Int63()})

	w.finish = func(r *roundResult) {
		for _, rep := range hh.Reports {
			r.note(rep.Time, float64(rep.Bucket), float64(rep.Count))
		}
		for _, a := range sd.Alerts {
			r.note(a.Time, float64(a.Distinct))
		}
		// The victim hears from thousands of sources, so it must be
		// flagged during the round. Not in every interval: with twenty
		// bucket tones sounding, onset splatter keeps some buckets from
		// re-arming (README.md, "Findings").
		r.expect(len(sd.Alerts) > 0, "victim never flagged")
		if !exact {
			r.counts["sketch.bytes"] = float64(hh.Counter().Bytes() + sd.DistinctCounter().Bytes())
			if r.index == 0 {
				checkAgainstExact(r, seed, v, hh, sd)
			}
		}
		r.counts["core.app_events"] = float64(len(hh.Reports) + len(sd.Alerts))
		r.expect(src.TxPackets == fs.Sent, "host sent %d packets, flow set %d", src.TxPackets, fs.Sent)
		deliverAll(r, []*netsim.Host{server, victim}, []*netsim.Host{src}, sw)
	}
	return w, hh, sd, nil
}

// checkAgainstExact runs the same seed with exact counters and requires
// the sketch-backed reports to equal the exact ones: the same buckets
// and victim flagged in the same intervals. The counts they carry are
// sketch estimates and may differ (a HyperLogLog register collision
// reads 8 distinct buckets as 7).
func checkAgainstExact(r *roundResult, seed int64, v variant, hh *core.HeavyHitter, sd *core.SpreadDetector) {
	ow, ohh, osd, err := buildTrafficSketchWith(seed, v, nil, true)
	if err != nil {
		r.fail("exact oracle: %v", err)
		return
	}
	ow.sim.RunUntil(ow.duration)
	if v.corrupt {
		osd.Alerts = append(osd.Alerts, core.SpreadAlert{})
	}
	same := len(ohh.Reports) == len(hh.Reports)
	for i := 0; same && i < len(hh.Reports); i++ {
		same = hh.Reports[i].Time == ohh.Reports[i].Time && hh.Reports[i].Bucket == ohh.Reports[i].Bucket
	}
	r.expect(same, "heavy-hitter reports differ from exact counting (%d vs %d)", len(hh.Reports), len(ohh.Reports))
	same = len(osd.Alerts) == len(sd.Alerts)
	for i := 0; same && i < len(sd.Alerts); i++ {
		same = sd.Alerts[i].Time == osd.Alerts[i].Time
	}
	r.expect(same, "victim alerts differ from exact counting (%d vs %d)", len(sd.Alerts), len(osd.Alerts))
}

// flowAddr gives flow i its own source address in 10.64.0.0/10.
func flowAddr(i int) netip.Addr {
	return netip.AddrFrom4([4]byte{10, byte(64 + i>>16), byte(i >> 8), byte(i)})
}

// timedFlowCounter times each sketch update as an aggregate
// "sketch.update" span when traced.
func (w *world) timedFlowCounter(c core.FlowCounter) core.FlowCounter {
	if w.tr == nil {
		return c
	}
	return &spanFlowCounter{FlowCounter: c, tr: w.tr}
}

func (w *world) timedDistinctCounter(c core.DistinctCounter) core.DistinctCounter {
	if w.tr == nil {
		return c
	}
	return &spanDistinctCounter{DistinctCounter: c, tr: w.tr}
}

type spanFlowCounter struct {
	core.FlowCounter
	tr *tracer
}

func (c *spanFlowCounter) Add(key, n uint64) {
	t0 := c.tr.now()
	c.FlowCounter.Add(key, n)
	c.tr.add("sketch.update", t0, c.tr.now()-t0)
}

type spanDistinctCounter struct {
	core.DistinctCounter
	tr *tracer
}

func (c *spanDistinctCounter) Observe(key uint64) {
	t0 := c.tr.now()
	c.DistinctCounter.Observe(key)
	c.tr.add("sketch.update", t0, c.tr.now()-t0)
}
