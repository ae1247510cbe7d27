package main

import (
	"fmt"
	"sort"
	"time"
)

// Machine-speed calibration.
//
// The sandbox's CPU speed drifts by ±10-15 % over seconds to minutes
// (neighbours, frequency), and every timing drifts with it: in ten plain
// runs of one commit all latencies of a run moved together and their
// run-to-run spread was 5-15 %, wider than most changes worth detecting.
// The drift is common to everything the process executes, so it is
// measured and divided out: a fixed kernel of the kind of work the engine
// does (string keys, map inserts and lookups, small allocations, a sort)
// is timed between every calibEvery operations, and each latency is
// reported at reference speed, i.e. multiplied by nominalKernelNS over the
// kernel's cost around that operation. That brought the spread of
// throughput and the medians down to 1-5 %. The kernel is the benchmark's
// own code and never changes with the engine, so a comparison between two
// commits divides both by the same yardstick.
const (
	calibEvery = 32 // operations between two calibration samples
	calibIters = 2  // kernel iterations per sample
	// nominalKernelNS is one kernel iteration at reference speed: about
	// what this sandbox takes when it is quiet, so that reference-speed
	// numbers read like this machine's.
	nominalKernelNS = 55_000
)

var calibSink int

// calibKernel is one iteration of the fixed yardstick work.
func calibKernel() {
	m := make(map[string][]int64, 256)
	keys := make([]string, 0, 256)
	for i := 0; i < 256; i++ {
		k := fmt.Sprintf("k%d", i*7919)
		m[k] = []int64{int64(i), int64(i * 3)}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		calibSink += int(m[k][1])
	}
}

// calibSample times iters kernel iterations and returns ns per iteration.
func calibSample(iters int) float64 {
	start := time.Now()
	for i := 0; i < iters; i++ {
		calibKernel()
	}
	return float64(time.Since(start)) / float64(iters)
}

// speedTrack is the kernel's cost along one timed section: sample j was
// taken just before operation j*calibEvery.
type speedTrack struct{ samples []float64 }

func (s *speedTrack) sample() { s.samples = append(s.samples, calibSample(calibIters)) }

// factor is how much slower than reference speed the machine ran around
// operation i: the median of the two samples before and the two after it
// (a single sample can itself be hit by a collection or a preemption).
func (s *speedTrack) factor(i int) float64 {
	j := i / calibEvery
	lo, hi := max(j-1, 0), min(j+3, len(s.samples))
	if lo >= hi {
		return 1
	}
	return median(s.samples[lo:hi]) / nominalKernelNS
}

// overall is the median factor of the whole section.
func (s *speedTrack) overall() float64 {
	if len(s.samples) == 0 {
		return 1
	}
	return median(s.samples) / nominalKernelNS
}
