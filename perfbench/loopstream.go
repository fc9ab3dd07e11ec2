package main

import (
	"math/rand"
	"sort"

	"mdn/internal/acoustic"
	"mdn/internal/core"
	"mdn/internal/mp"
	"mdn/internal/netsim"
	"mdn/internal/openflow"
)

// Congestion schedule of loop-stream: an on/off burst every
// burstPeriod seconds overfills the bottleneck queue past the monitor's
// high threshold, then drains, so episodes repeat.
const (
	burstPeriod = 1.5
	burstOn     = 0.25
	burstPPS    = 700
	// flowmodWait bounds how long after its trigger a Flow-MOD may be
	// confirmed and still count as that trigger's.
	flowmodWait = 2.0
)

// buildLoopStream closes the paper's §6 loop on a rhombus: a queue
// monitor sings s1's bottleneck occupancy, a load balancer (re-arming
// on every congested tone) splits traffic with a Flow-MOD over an
// OpenFlow channel that drops 10% of messages, and a port-knock
// application opens a port after the right knock sequence. Detection
// streams 10 ms hops over three microphones with the device monitor on.
func buildLoopStream(seed int64, v variant, tr *tracer) (*world, error) {
	dur := 10.0
	if v.tiny {
		dur = 6
	}
	w := newWorld(seed, tr, dur, 0.010)
	rng := rand.New(rand.NewSource(seed))
	plan := core.DefaultPlan()
	w.mics = append(w.mics,
		w.room.AddMicrophone("mic-east", acoustic.Position{X: 2, Y: 1}, 0.0005),
		w.room.AddMicrophone("mic-west", acoustic.Position{X: -1, Y: 1.5}, 0.0005))

	rh := netsim.NewRhombusLinks(w.sim,
		netsim.LinkSpec{RateBps: 1e8, Latency: 0.0001, QueueCap: 4000},
		netsim.LinkSpec{RateBps: 2e6, Latency: 0.0001, QueueCap: 4000})
	sp := w.room.AddSpeaker("s1", acoustic.Position{X: 1})
	voice := core.NewVoice(w.sim, mp.NewSounder(mp.NewPi(w.sim, sp, 0.002)))
	w.voices = append(w.voices, voice)
	w.emitters["s1"] = true

	mgr := core.NewManager(w.sim, w.mics[0], plan)
	w.ctrl = mgr.Ctrl
	qm, err := core.NewQueueMonitor(plan, rh.S1, 2, voice)
	if err != nil {
		return nil, err
	}
	ch := openflow.NewChannel(w.sim, rh.S1, 0.005)
	ch.InjectFaults(netsim.Faults{DropProb: 0.1, Seed: rng.Int63()})
	lb := core.NewLoadBalancer(qm, ch, openflow.FlowMod{
		Command:  openflow.FlowAdd,
		Priority: 10,
		Match:    netsim.Match{Dst: rh.H2.Addr},
		Action:   netsim.Split(2, 3),
		// The split expires between bursts, so the next burst congests
		// the upper path again.
		HardTimeout: 0.6,
	})
	lb.OneShot = false
	knock := distinctPorts(rng, 3, 7000, 1000)
	pk, err := core.NewPortKnock(plan, "s1", voice, ch, knock, openflow.FlowMod{
		Command:  openflow.FlowAdd,
		Priority: 20,
		Match:    netsim.Match{Dst: rh.H2.Addr, DstPort: 22},
		Action:   netsim.Output(2),
	})
	if err != nil {
		return nil, err
	}
	for _, app := range []core.App{qm, pk} {
		if err := mgr.Deploy(app); err != nil {
			return nil, err
		}
	}
	fleet := w.ctrl.EnableFleet(1)
	for _, m := range w.mics[1:] {
		fleet.AddMicrophone(m)
	}
	// Calibrated above the office ambience at the knock and queue tones
	// (≲0.001 at the mics) and a neighbouring tone's boundary splatter,
	// and below the switch tones (≳0.008); see README.md, "Findings".
	w.ctrl.Detector.MinAmplitude = 0.006
	mon := w.ctrl.EnableDeviceMonitor()
	if w.reg != nil {
		mon.Instrument(w.reg)
	}

	// Switch-side ground truth: when each knock reached s1.
	knockAt := make(map[uint16][]float64)
	rh.S1.Tap = w.timedTap(func(p *netsim.Packet, in int) {
		for _, k := range knock {
			if p.Flow.DstPort == k {
				knockAt[k] = append(knockAt[k], w.sim.Now())
			}
		}
		pk.Tap(p, in)
	})
	// A seeded sampling phase, so tones do not sit at one offset from
	// the hop grid in every round.
	qm.StartSwitchSide(w.sim, 0.05+qm.SampleInterval*rng.Float64())

	// Flow-MOD confirmations, and the times the balancer called Install.
	var lbConfirm, pkConfirm, lbInstall []float64
	confirmInto := func(p *openflow.Programmer, into *[]float64) {
		prev := p.OnResult
		p.OnResult = func(m openflow.FlowMod, err error) {
			prev(m, err)
			if err == nil {
				*into = append(*into, w.sim.Now())
			}
		}
	}
	confirmInto(lb.Programmer(), &lbConfirm)
	confirmInto(pk.Programmer(), &pkConfirm)

	w.dispatchPre()
	mgr.StartStream(0, w.hop)
	w.ctrl.SubscribeWindowsNamed("loadbalance", func(from float64, dets []core.Detection) {
		before := lb.Triggers
		lb.HandleWindow(from, dets)
		if lb.Triggers > before {
			lbInstall = append(lbInstall, w.sim.Now())
		}
	})
	w.dispatchPost()
	w.subscribeRecorder()
	w.startReplay()

	w.room.AddNoise(w.render(func() *acoustic.NoiseSource { return core.OfficeNoise(44100, 3, seed) }))

	flow := netsim.FiveTuple{Src: rh.H1.Addr, Dst: rh.H2.Addr, SrcPort: uint16(1024 + rng.Intn(4096)), DstPort: 5001, Proto: netsim.ProtoUDP}
	for at := 0.5 + rng.Float64()*0.2; at+burstOn < dur; at += burstPeriod {
		netsim.StartCBR(w.sim, rh.H1, flow, burstPPS, 1500, at, at+burstOn)
	}
	// Knocks: the sequence reversed first (no Flow-MOD may follow),
	// then the right order.
	sendKnocks := func(at float64, ports []uint16) {
		for i, p := range ports {
			f := netsim.FiveTuple{Src: rh.H1.Addr, Dst: rh.H2.Addr, SrcPort: 40000, DstPort: p, Proto: netsim.ProtoTCP}
			t := at + 0.4*float64(i)
			w.sim.Schedule(t, func() { rh.H1.Send(f, 64) })
		}
	}
	wrongAt, validAt := 1.3+0.1*rng.Float64(), dur/2+0.1*rng.Float64()
	sendKnocks(wrongAt, []uint16{knock[2], knock[1], knock[0]})
	sendKnocks(validAt, knock)

	w.finish = func(r *roundResult) {
		// Every congestion episode — a high tone after a lower one at
		// the switch — must be followed by a confirmed split Flow-MOD.
		prev := core.LevelLow
		for _, s := range qm.ToneLog {
			if s.Level == core.LevelHigh && prev != core.LevelHigh && s.Time+flowmodWait < dur {
				k := sort.SearchFloat64s(lbConfirm, s.Time)
				ok := k < len(lbConfirm) && lbConfirm[k] <= s.Time+flowmodWait
				r.expect(ok, "congestion episode at t=%.2fs got no Flow-MOD", s.Time)
				if ok {
					r.flowmodMS = append(r.flowmodMS, 1e3*(lbConfirm[k]-s.Time))
				}
			}
			prev = s.Level
		}
		// Install → confirmation, per balancer trigger.
		for _, t := range lbInstall {
			if k := sort.SearchFloat64s(lbConfirm, t); k < len(lbConfirm) && lbConfirm[k] <= t+flowmodWait {
				r.installMS = append(r.installMS, 1e3*(lbConfirm[k]-t))
			}
		}
		// Knocks: nothing opens before the valid sequence's last knock,
		// which gets exactly one Flow-MOD.
		last := knock[len(knock)-1]
		var lastKnock float64
		for _, t := range knockAt[last] {
			if t >= validAt {
				lastKnock = t
				break
			}
		}
		if v.corrupt {
			lastKnock++
		}
		r.expect(len(pkConfirm) == 1 && pkConfirm[0] >= lastKnock && lastKnock > 0,
			"knocks got %d Flow-MODs (want one after the valid sequence at t=%.2fs)", len(pkConfirm), lastKnock)
		r.expect(pk.WrongKnocks > 0, "reversed knocks were not rejected")
		if len(pkConfirm) == 1 && lastKnock > 0 {
			r.flowmodMS = append(r.flowmodMS, 1e3*(pkConfirm[0]-lastKnock))
		}
		r.note(r.flowmodMS...)
		r.note(r.installMS...)
		for _, s := range qm.Heard {
			r.note(s.Time, float64(s.Level))
		}
		c := r.counts
		lp, kp := lb.Programmer(), pk.Programmer()
		c["openflow.attempts"] = float64(lp.Attempts + kp.Attempts)
		c["openflow.retries"] = float64(lp.Retries + kp.Retries)
		c["openflow.failures"] = float64(lp.Failures + kp.Failures)
		c["core.app_events"] = float64(len(qm.Heard)) + float64(lb.Triggers) + float64(pk.Accepts())
		c["netsim.queue_drops_bottleneck"] = float64(rh.S1.Port(2).Out.Drops())
		deliverAll(r, []*netsim.Host{rh.H2}, []*netsim.Host{rh.H1}, rh.S1, rh.S2, rh.S3, rh.S4)
	}
	return w, nil
}

// distinctPorts draws n distinct ports from [base, base+span).
func distinctPorts(rng *rand.Rand, n int, base, span int) []uint16 {
	seen := make(map[uint16]bool)
	var out []uint16
	for len(out) < n {
		p := uint16(base + rng.Intn(span))
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}
