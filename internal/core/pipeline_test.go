package core

import (
	"reflect"
	"testing"

	"mdn/internal/acoustic"
	"mdn/internal/audio"
	"mdn/internal/netsim"
)

// TestStreamRekeyKeepsCallersStream re-keys a detuned speaker while
// the controller streams at hop == window: the watch-list edit must
// rebuild the running pipes in place, so the *StreamController the
// caller holds stays the live one — it keeps counting every hop, one
// hop per analysed window — and the shifted tone is heard and
// rewritten back to the commanded frequency.
func TestStreamRekeyKeepsCallersStream(t *testing.T) {
	r := newDeviceRig(1)
	r.mon.SilentWindows = 10
	r.mon.WatchSpeaker("s1", nil, devBeatFreq)
	r.sp.ScheduleDetune(2.0, 2.5, 1.04)
	r.scheduleBeats(8)

	var rewritten []float64 // window starts of 700 Hz detections
	r.ctrl.SubscribeWindows(func(start float64, dets []Detection) {
		for _, d := range dets {
			if d.Frequency == devBeatFreq {
				rewritten = append(rewritten, start)
			}
		}
	})
	s := r.ctrl.StartStream(0, r.ctrl.Window)
	r.sim.RunUntil(5)

	if d := deviceByName(r.mon.Snapshot(), "s1"); d.State != "detuned" || d.Rekeys != 1 {
		t.Fatalf("s1 = %+v, want detuned with 1 rekey", d)
	}
	if r.ctrl.Stream() != s {
		t.Fatal("the re-key replaced the caller's StreamController")
	}
	if s.Hops != r.ctrl.Windows {
		t.Errorf("stream counted %d hops over %d analysed windows, want equal", s.Hops, r.ctrl.Windows)
	}
	post := 0
	for _, w := range rewritten {
		if w >= 3.5 {
			post++
		}
	}
	if post == 0 {
		t.Error("no 700 Hz detections after the re-key: the pipes did not pick up the shifted watch")
	}
}

// streamFleetRun is one run of a four-microphone streaming fleet with
// a device monitor: its dispatched window batches, its onsets, and the
// monitor's final device snapshot.
type streamFleetRun struct {
	windows []windowRec
	onsets  []Detection
	devices []DeviceHealth
}

// runStreamFleet streams a four-microphone fleet on a pool of workers
// through a noise fault on one microphone (recalibration, quarantine,
// rejoin) and a detuned speaker (re-key).
func runStreamFleet(workers int, hop float64) streamFleetRun {
	sim := netsim.NewSim()
	room := acoustic.NewRoom(44100, 7)
	sp := room.AddSpeaker("s1", acoustic.Position{X: 1})
	var mics []*acoustic.Microphone
	for i := 0; i < 4; i++ {
		mics = append(mics, room.AddMicrophone("m"+itoa(i), acoustic.Position{Y: float64(i)}, 0.0005))
	}
	mics[2].ScheduleNoiseRamp(1.5, 2.0, 0.5)
	mics[2].ScheduleNoiseRamp(5.0, 5.5, 0.0005)
	sp.ScheduleDetune(3.0, 3.5, 1.04)
	for at := 0.1; at < 10; at += devBeatPeriod {
		sp.Play(at, audio.Tone{Frequency: devBeatFreq, Duration: 0.065,
			Amplitude: acoustic.SPLToAmplitude(60)})
	}

	ctrl := NewController(sim, mics[0], NewDetector(MethodGoertzel, []float64{devBeatFreq}))
	fleet := ctrl.EnableFleet(workers)
	defer fleet.Close()
	for _, m := range mics[1:] {
		fleet.AddMicrophone(m)
	}
	mon := ctrl.EnableDeviceMonitor()
	mon.SilentWindows = 10
	mon.WatchSpeaker("s1", nil, devBeatFreq)
	recs := recordWindows(ctrl)
	var run streamFleetRun
	s := ctrl.StartStream(0, hop)
	s.OnOnset = func(d Detection) { run.onsets = append(run.onsets, d) }
	sim.RunUntil(10)
	run.windows = *recs
	run.devices = mon.Snapshot()
	return run
}

// TestStreamFleetWorkersMatchSerial is the N workers ≡ serial contract
// for the streaming path: with the pipes running on the fleet's pool,
// a monitored four-microphone stream must dispatch byte-identical
// window batches, fire identical onsets, and leave an identical device
// snapshot at any worker count — through quarantine, rejoin and
// re-key — at a sub-window hop and at hop == window.
func TestStreamFleetWorkersMatchSerial(t *testing.T) {
	for _, hop := range []float64{0.010, DefaultWindow} {
		serial := runStreamFleet(1, hop)
		if len(serial.windows) == 0 || len(serial.onsets) == 0 {
			t.Fatalf("hop %g: serial stream dispatched %d windows and %d onsets",
				hop, len(serial.windows), len(serial.onsets))
		}
		parallel := runStreamFleet(4, hop)
		if !reflect.DeepEqual(serial.windows, parallel.windows) {
			t.Errorf("hop %g: window batches differ between 1 and 4 workers", hop)
		}
		if !reflect.DeepEqual(serial.onsets, parallel.onsets) {
			t.Errorf("hop %g: onsets differ between 1 and 4 workers:\n%+v\n%+v",
				hop, serial.onsets, parallel.onsets)
		}
		if !reflect.DeepEqual(serial.devices, parallel.devices) {
			t.Errorf("hop %g: device snapshots differ between 1 and 4 workers:\n%+v\n%+v",
				hop, serial.devices, parallel.devices)
		}
		if hop == DefaultWindow {
			m2, s1 := deviceByName(serial.devices, "m2"), deviceByName(serial.devices, "s1")
			if m2.Quarantines == 0 || m2.Rejoins == 0 || s1.Rekeys == 0 {
				t.Errorf("hop %g: the fault arc did not run (m2 %+v, s1 %+v)", hop, m2, s1)
			}
		}
	}
}
