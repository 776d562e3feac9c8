package main

import (
	"math"
	"os"
	"strconv"
	"strings"
	"time"
)

// refWork is a fixed piece of CPU work that belongs to the benchmark:
// sigmoid matrix-vector rounds over a 64x64 matrix, the shape of the
// filter's recurrent step. It calls nothing in the repository, so a change
// to the program leaves its time alone, while a change in the host's speed
// moves it. On the 2-vCPU host of README.md it takes 1 to 3 ms.
func refWork() float64 {
	const n = 64
	var m [n * n]float64
	for i := range m {
		m[i] = float64(i%7-3) / n
	}
	x, y := make([]float64, n), make([]float64, n)
	for i := range x {
		x[i] = float64(i%5) / 5
	}
	for r := 0; r < refRounds; r++ {
		for i := 0; i < n; i++ {
			s := 0.0
			for j, w := range m[i*n : (i+1)*n] {
				s += w * x[j]
			}
			y[i] = 1 / (1 + math.Exp(-s))
		}
		x, y = y, x
	}
	return x[0]
}

const (
	refRounds    = 400
	refNominalNS = 2e6 // refWork's time on the fixed host of hostScale
	refTimings   = 5   // timings of refWork on each side of a set-up or closed pass
)

// refSink keeps refWork's result live so the compiler cannot drop the work.
var refSink float64

// refTimes appends refTimings timings of refWork, in ns, to xs.
func refTimes(xs []float64) []float64 {
	for i := 0; i < refTimings; i++ {
		t0 := time.Now()
		refSink += refWork()
		xs = append(xs, float64(time.Since(t0)))
	}
	return xs
}

// hostScale is how much faster than the fixed host a host ran, where
// refWork took refNS and the hypervisor took a share stolen of the vCPUs'
// time; the fixed host is one where refWork takes refNominalNS and nothing
// is stolen. A throughput is multiplied by it and a time divided by it. A
// host that runs everything 20% slower makes refNS 20% longer, the
// throughput 20% lower and a time 20% longer, and the scaled figures stay;
// a program that gets 20% slower moves only its own figures. refWork's
// median timing leaves out the moments its vCPU was stolen, so steal is
// scaled out separately. stolen is capped at maxStolen, past which the
// scaling would be a guess.
func hostScale(refNS, stolen float64) float64 {
	return refNS / refNominalNS / (1 - math.Min(stolen, maxStolen))
}

const maxStolen = 0.5

// stealSeconds returns the time the hypervisor has taken from this
// machine's vCPUs since boot, summed over vCPUs: the steal column of the
// first line of /proc/stat, in USER_HZ ticks of 10 ms. Where that cannot be
// read it returns 0, so no steal is scaled out.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}
