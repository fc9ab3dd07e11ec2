package main

import "math"

// Host-speed calibration.
//
// The benchmark shares its host with other tenants, and their load
// changes how fast this process runs by up to 2x, in phases lasting
// seconds to minutes: on a 2-vCPU host, six 5 s runs of modem-link
// back to back read realtime_x from 124 down to 77, and within one run
// its rounds sat near 75 for seconds at a time, then near 120 for
// seconds more. Longer runs do not average that away.
//
// So the benchmark also times a fixed reference kernel on the
// simulation thread: after each round's set-up, between its windows
// whenever they have used segmentNs of thread CPU since the last
// sample, and after its last window. Each time is reported at the
// reference speed as well: scaled by refKernelNs over what the kernel
// took, for a window the mean of the samples on either side of it.
// (On ten seeds of modem-link this left realtime_x spreading 2.6%
// between runs, against 4.8% when each round is scaled by the median
// of its samples and 20.5% unscaled.) The kernel mixes the three
// kinds of work the workloads spend their time on, because other
// tenants slow each kind by a different amount: a Goertzel-bank float
// loop (130 resonators, like the modem's watch list), random
// read-modify-writes over 256 KiB (packet and emission state), and a
// binary-heap push and pop (the event scheduler). The kernel is the
// benchmark's own code, so a change to the program moves the scaled
// times exactly as it moves the raw ones.

// refKernelNs is the reference speed: the kernel's thread CPU time, in
// ns, on a host that runs it in exactly 250 µs. A 2-vCPU Intel Xeon VM
// runs it in 210-300 µs, depending on its neighbours' load.
const refKernelNs = 250e3

// segmentNs is the simulation thread CPU time between two samples of
// the kernel. A sample costs about twice the kernel's time, so sampling
// adds about 2.5% to a run's wall time, none of it measured.
const segmentNs = 20e6

const (
	calibTones   = 130
	calibSamples = 800
	calibTable   = 1 << 15
	calibRMWs    = 20000
	calibHeap    = 1024
)

// calibrator holds the kernel's state. Each kind of state is carved
// from one allocation at fixed offsets, and the kernel copies the slice
// headers into locals. A store to an address that matches, in its low
// 12 bits, a later load from elsewhere (here, of a slice header kept in
// the struct) stalls the load on a false dependency ("4K aliasing").
// With the arrays and the struct placed independently, a few processes
// in a hundred ran the kernel about 1.4x slower for their whole life,
// so every time they scaled read 1.4x too fast; a header placed 0 mod
// 4096 from the array the loop stores into reproduces that 1.4x.
type calibrator struct {
	fl   []float64 // coeff, s1, s2, block
	ints []uint64  // table, heap
	sink float64
}

func newCalibrator() *calibrator {
	c := &calibrator{
		fl:   make([]float64, 3*calibTones+calibSamples),
		ints: make([]uint64, calibTable+calibHeap),
	}
	coeff, block := c.fl[:calibTones], c.fl[3*calibTones:]
	for j := range coeff {
		coeff[j] = 2 * math.Cos(float64(j)*0.013)
	}
	for i := range block {
		block[i] = math.Sin(float64(i) * 0.01)
	}
	return c
}

// kernelNs runs the kernel once to warm the caches the simulation
// evicted, then once more, and returns the thread CPU time of the
// second run. The caller must be locked to its OS thread.
func (c *calibrator) kernelNs() (float64, error) {
	c.kernel()
	a, err := threadCPU()
	if err != nil {
		return 0, err
	}
	c.kernel()
	b, err := threadCPU()
	if err != nil {
		return 0, err
	}
	return float64(b - a), nil
}

// scaler samples the kernel through each round of a pass and converts
// the round's times to the reference speed, a segment of windows at a
// time.
type scaler struct {
	sample func() (float64, error) // times the kernel, in ns
	last   float64                 // the sample that opened the segment
	from   int                     // the segment's first window
	cpuNs  int64                   // the segment's thread CPU time
	wallS  float64                 // the segment's wall time
	sum    float64                 // of the round's samples
	n      int
}

// begin takes a sample after r's set-up and scales the set-up time by it.
func (s *scaler) begin(r *roundResult) error {
	k, err := s.sample()
	if err != nil {
		return err
	}
	r.refSetupS = r.setupS * refKernelNs / k
	s.last, s.from, s.cpuNs, s.wallS, s.sum, s.n = k, 0, 0, 0, k, 1
	return nil
}

// window counts the times of the window just appended to r.windowsUS
// and closes the segment once it has used segmentNs.
func (s *scaler) window(r *roundResult, cpuNs int64, wallS float64) error {
	s.cpuNs += cpuNs
	s.wallS += wallS
	if s.cpuNs < segmentNs {
		return nil
	}
	return s.close(r)
}

// end closes the round's last segment.
func (s *scaler) end(r *roundResult) error {
	if err := s.close(r); err != nil {
		return err
	}
	r.kernelNs = s.sum / float64(s.n)
	return nil
}

// close takes a sample and scales the segment's windows by the mean of
// it and the sample that opened the segment.
func (s *scaler) close(r *roundResult) error {
	k, err := s.sample()
	if err != nil {
		return err
	}
	scale := refKernelNs / ((s.last + k) / 2)
	for _, us := range r.windowsUS[s.from:] {
		r.refWindowsUS = append(r.refWindowsUS, us*scale)
	}
	r.refRunS += s.wallS * scale
	s.last, s.from, s.cpuNs, s.wallS = k, len(r.windowsUS), 0, 0
	s.sum += k
	s.n++
	return nil
}

func (c *calibrator) kernel() {
	coeff := c.fl[:calibTones]
	s1 := c.fl[calibTones : 2*calibTones]
	s2 := c.fl[2*calibTones : 3*calibTones]
	block := c.fl[3*calibTones:]
	table, heap := c.ints[:calibTable], c.ints[calibTable:calibTable:calibTable+calibHeap]
	// Goertzel bank: every resonator advances on every sample.
	for j := range s1 {
		s1[j], s2[j] = 0, 0
	}
	for _, x := range block {
		for j, k := range coeff {
			s0 := x + k*s1[j] - s2[j]
			s2[j] = s1[j]
			s1[j] = s0
		}
	}
	// Random read-modify-writes over the table.
	z, acc := uint64(12345), uint64(0)
	for i := 0; i < calibRMWs; i++ {
		z += 0x9e3779b97f4a7c15
		k := ((z ^ (z >> 30)) * 0xbf58476d1ce4e5b9) & (calibTable - 1)
		table[k] += acc | 1
		acc ^= table[(k*7)&(calibTable-1)]
	}
	// Binary min-heap: push calibHeap keys, then pop them all.
	h := heap
	for i := 0; i < calibHeap; i++ {
		z += 0x9e3779b97f4a7c15
		h = append(h, (z^(z>>31))*0x94d049bb133111eb)
		for j := len(h) - 1; j > 0; {
			p := (j - 1) / 2
			if h[p] <= h[j] {
				break
			}
			h[p], h[j] = h[j], h[p]
			j = p
		}
	}
	for n := len(h) - 1; n >= 0; n-- {
		h[0] = h[n]
		h = h[:n]
		for p := 0; ; {
			j := 2*p + 1
			if j >= n {
				break
			}
			if j+1 < n && h[j+1] < h[j] {
				j++
			}
			if h[p] <= h[j] {
				break
			}
			h[p], h[j] = h[j], h[p]
			p = j
		}
	}
	c.sink += s1[3] + float64(acc&1)
}
