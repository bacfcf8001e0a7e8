package main

import (
	"runtime"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// The box this benchmark was sized on is a shared VM whose host gives it,
// for seconds to minutes at a time, anything between full speed and well
// under it. Every timing of the programs under test follows: throughput
// and CPU seconds per request move by a third from run to run while the
// product of the two spreads by 1-5% (build_web, serve_topk), and ten
// runs of one workload on the same code spread (inter-quartile range
// over median) by up to 33%, more than any bound BENCHMARK.json may set. So a run gauges the
// machine while it measures, and reports timings and rates in machine
// units: divided (timings) or multiplied (rates) by how long the gauge's
// kernel took over unitKernelMS. README.md has the measurements: the
// gauge follows every timing closely (correlation mostly above 0.8) and
// the correction about halves the spread. It under-corrects, since the
// programs slow 1.2-2 times as much as the kernel does, and no exponent
// is fitted to make up for that: a correction that followed the
// programs any closer would start to follow regressions in them too.
//
// The gauge must not move with what the programs under test do, or a
// change that, say, raised memory pressure would have part of its
// regression divided away. It runs on this process's own thread and
// counts that thread's CPU time, so waiting for a core does not count.
// Measured with nothing else running, beside two threads streaming
// through 512 MiB, and beside two threads spinning in registers, three
// rounds each: 0.494-0.501, 0.471-0.501 and 0.465-0.476 ms. A guest
// that keeps the cores busy makes the kernel a few percent faster (the
// cores stay awake), the same on every run since every run keeps them
// busy, and a cache-hungry one moves it no more than an idle one.

// unitKernelMS fixes the machine unit: reported milliseconds are those
// of a machine on which the kernel takes this long, which the sizing
// box does when its host is quiet. Any constant would serve; this one
// makes reported and measured figures agree there.
const unitKernelMS = 0.5

// kernel fills buf from a fixed xorshift stream, sorts it and folds it:
// ALU, branches and a working set past the L1 cache.
func kernel(buf []uint32) uint32 {
	x := uint32(2463534242)
	for i := range buf {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		buf[i] = x
	}
	slices.Sort(buf)
	var h uint32
	for _, v := range buf {
		h = h*31 + v
	}
	return h
}

// gauge samples the machine's speed for as long as a run lasts: every
// 20 ms one thread runs the kernel and notes the CPU time it took (the
// thread's own clock, so that waiting for a CPU the workload is using
// does not count). That is a few percent of one CPU, the same on every
// run.
type gauge struct {
	stop chan struct{}
	done chan struct{}
	ms   []float64
}

func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

func startGauge() *gauge {
	g := &gauge{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(g.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		buf := make([]uint32, 1<<13)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-tick.C:
				t := threadCPU()
				kernel(buf)
				g.ms = append(g.ms, ms(threadCPU()-t))
			}
		}
	}()
	return g
}

// halt stops the sampling thread; calling it again is harmless.
func (g *gauge) halt() {
	select {
	case <-g.stop:
	default:
		close(g.stop)
	}
	<-g.done
}

// kernelMS stops the gauge and returns the median CPU time one kernel
// took, in milliseconds; unitKernelMS if the run was too short for one.
func (g *gauge) kernelMS() float64 {
	g.halt()
	if len(g.ms) == 0 {
		return unitKernelMS
	}
	return median(g.ms)
}

// inMachineUnits says how a metric is brought to machine units: +1 a
// timing, divided by the machine factor; -1 a rate, multiplied by it.
// Sizes are left alone.
var inMachineUnits = map[string]int{
	"setup_s": +1, "work_per_s": -1, "latency_p50_ms": +1, "latency_tail_ms": +1, "cpu_ms_per_unit": +1,
}
