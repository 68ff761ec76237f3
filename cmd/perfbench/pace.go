package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// The open-loop generator paces arrivals with raw nanosleep plus a short
// spin, not Go timers alone: on small containers an idle Go process wakes
// about a millisecond late from sub-millisecond time.Sleep calls, while a
// nanosleep wakes tens of microseconds late. A Go timer still covers long
// gaps, because a goroutine in nanosleep keeps its P and, with every P
// held, network wake-ups wait for the runtime's 10ms sysmon poll. The
// spin covers the remaining overshoot so a request leaves close to when
// it is due; it yields so the other sender can run.

// timerCutoff is the gap above which the pacer parks on a Go timer first.
const timerCutoff = 2 * time.Millisecond

// spinWindow is how long before a due time the pacer stops sleeping and
// spins. It is set once per run from the measured nanosleep overshoot.
var spinWindow = 100 * time.Microsecond

// waitUntil blocks until epoch+due.
func waitUntil(epoch time.Time, due time.Duration) {
	for {
		rem := due - time.Since(epoch)
		if rem <= 0 {
			return
		}
		if rem > timerCutoff {
			time.Sleep(rem - timerCutoff)
			continue
		}
		if rem > spinWindow {
			ts := syscall.NsecToTimespec(int64(rem - spinWindow))
			_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the sleep
			continue
		}
		for time.Since(epoch) < due {
			runtime.Gosched()
		}
		return
	}
}

// timerOvershoot measures how late a 200µs nanosleep and a 200µs
// time.Sleep wake, as medians over a few samples.
func timerOvershoot() (nanosleepUS, goSleepUS float64) {
	const n, d = 41, 200 * time.Microsecond
	ns := make([]float64, n)
	gs := make([]float64, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil)
		ns[i] = float64(time.Since(t0)-d) / 1e3
		t0 = time.Now()
		time.Sleep(d)
		gs[i] = float64(time.Since(t0)-d) / 1e3
	}
	sort.Float64s(ns)
	sort.Float64s(gs)
	return ns[n/2], gs[n/2]
}

// fingerprint describes the machine a result came from. It also sets the
// pacer's spinWindow from the measured nanosleep overshoot: twice the
// typical overshoot, within 30-300µs.
func fingerprint() map[string]any {
	nsOver, goOver := timerOvershoot()
	spinWindow = time.Duration(min(max(2*nsOver, 30), 300) * float64(time.Microsecond))
	return map[string]any{
		"num_cpu":                runtime.NumCPU(),
		"gomaxprocs":             runtime.GOMAXPROCS(0),
		"go_version":             runtime.Version(),
		"cpu_model":              cpuModel(),
		"kernel_release":         kernelRelease(),
		"nanosleep_overshoot_us": nsOver,
		"go_sleep_overshoot_us":  goOver,
		"spin_window_us":         float64(spinWindow) / 1e3,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				if kb, err := parseFloat(f[0]); err == nil && kb > 0 {
					return kb / 1024, nil
				}
			}
			break
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// stealTicks is the machine's steal and total CPU time from /proc/stat,
// in clock ticks. Steal is time the hypervisor ran something else while a
// virtual CPU wanted to run: a host signal beside generator lateness.
type stealTicks struct{ steal, total float64 }

// hostSteal reads the aggregate cpu line of /proc/stat; zeros when it
// cannot be read.
func hostSteal() stealTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var t stealTicks
	for i := 1; i < len(f); i++ {
		v, _ := parseFloat(f[i])
		if i <= 8 { // user nice system idle iowait irq softirq steal; guest time is in user
			t.total += v
		}
		if i == 8 {
			t.steal = v
		}
	}
	return t
}

// share is the steal share of the CPU time between since and t.
func (t stealTicks) share(since stealTicks) float64 {
	if d := t.total - since.total; d > 0 {
		return (t.steal - since.steal) / d
	}
	return 0
}
