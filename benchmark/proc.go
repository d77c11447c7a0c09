package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"syscall"
	"unsafe"
)

const (
	clockProcessCPUTimeID = 2
	clockThreadCPUTimeID  = 3
)

func cpuClockNs(id uintptr) int64 {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

// threadCPUNs is the calling OS thread's consumed CPU time. Callers that
// subtract two readings must be locked to their thread.
func threadCPUNs() int64 { return cpuClockNs(clockThreadCPUTimeID) }

// processCPUNs is this process's consumed CPU time, all threads, to the
// nanosecond (getrusage counts in scheduler ticks on some kernels).
func processCPUNs() int64 { return cpuClockNs(clockProcessCPUTimeID) }

// tightTimerSlack drops the calling thread's timer slack from the 50 us
// default to 1 ns, so a ppoll timeout fires when the next request is due.
func tightTimerSlack() {
	const prSetTimerslack = 29
	syscall.Syscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
}

// procTasks lists the thread ids of pid.
func procTasks(pid int) []int {
	ents, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	if err != nil {
		return nil
	}
	tids := make([]int, 0, len(ents))
	for _, e := range ents {
		if tid, err := strconv.Atoi(e.Name()); err == nil {
			tids = append(tids, tid)
		}
	}
	return tids
}

// procCPUNs sums on-CPU nanoseconds over the live threads of pids, from
// /proc/PID/task/TID/schedstat (ns resolution; /proc/PID/stat has 10 ms
// ticks). Threads in skip are left out.
func procCPUNs(pids []int, skip map[int]bool) int64 {
	var total int64
	for _, pid := range pids {
		for _, tid := range procTasks(pid) {
			if skip[tid] {
				continue
			}
			b, err := os.ReadFile(fmt.Sprintf("/proc/%d/task/%d/schedstat", pid, tid))
			if err != nil {
				continue
			}
			if f := bytes.Fields(b); len(f) > 0 {
				ns, _ := strconv.ParseInt(string(f[0]), 10, 64)
				total += ns
			}
		}
	}
	return total
}

// statusSum reads a /proc file of "Name:   value [unit]" lines once and adds
// up the named fields.
func statusSum(path string, names ...string) int64 {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	var total int64
	for _, line := range bytes.Split(b, []byte("\n")) {
		name, rest, ok := bytes.Cut(line, []byte(":"))
		if !ok || !slices.Contains(names, string(name)) {
			continue
		}
		if f := bytes.Fields(rest); len(f) > 0 {
			v, _ := strconv.ParseInt(string(f[0]), 10, 64)
			total += v
		}
	}
	return total
}

// procPeakRSSMB sums the peak resident set (VmHWM) of pids, in MB.
func procPeakRSSMB(pids []int) float64 {
	var kb int64
	for _, pid := range pids {
		kb += statusSum(fmt.Sprintf("/proc/%d/status", pid), "VmHWM")
	}
	return float64(kb) / 1024
}

// procCtxSwitches sums voluntary and involuntary context switches over the
// threads of pid that are not in skip.
func procCtxSwitches(pid int, skip map[int]bool) int64 {
	var total int64
	for _, tid := range procTasks(pid) {
		if !skip[tid] {
			total += statusSum(fmt.Sprintf("/proc/%d/task/%d/status", pid, tid),
				"voluntary_ctxt_switches", "nonvoluntary_ctxt_switches")
		}
	}
	return total
}

// procIOSyscalls is the count of read- and write-family system calls pid has
// made (syscr + syscw of /proc/PID/io).
func procIOSyscalls(pid int) int64 {
	return statusSum(fmt.Sprintf("/proc/%d/io", pid), "syscr", "syscw")
}

// hostProbe holds two fixed pieces of work whose thread-CPU time says how
// fast the host is right now: an L1-resident integer loop and a dependent
// pointer chase over 32 MB. They are reported, never used to normalise.
type hostProbe struct {
	chain      []uint32
	pos        uint32
	sink       uint64
	aluNs      []float64
	memNs      []float64
	aluIters   int
	chaseIters int
}

func newHostProbe() *hostProbe {
	const n = 8 << 20 // 8 Mi uint32 = 32 MB, beyond any cache on the box
	p := &hostProbe{chain: make([]uint32, n), aluIters: 1 << 20, chaseIters: 1 << 15}
	// One cycle through every slot (an odd stride is coprime to the
	// power-of-two size); consecutive loads land 256 KB apart, so each
	// step of the chase pays a cache and TLB miss.
	const stride = 4099*16 + 1
	for i, j := uint32(0), uint32(0); i < n; i++ {
		next := (j + stride) & (n - 1)
		p.chain[j] = next
		j = next
	}
	return p
}

// run times both probes once; the caller must be locked to its OS thread.
func (p *hostProbe) run() {
	t0 := threadCPUNs()
	x := p.sink | 1
	for i := 0; i < p.aluIters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		x ^= x >> 29
	}
	p.sink = x
	t1 := threadCPUNs()
	j := p.pos
	for i := 0; i < p.chaseIters; i++ {
		j = p.chain[j]
	}
	p.pos = j
	t2 := threadCPUNs()
	p.aluNs = append(p.aluNs, float64(t1-t0)/float64(p.aluIters))
	p.memNs = append(p.memNs, float64(t2-t1)/float64(p.chaseIters))
}

// copyDir copies the regular files of src into a fresh dst (WAL directories
// are flat).
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
