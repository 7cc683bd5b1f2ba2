package main

import (
	"math/bits"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity mask wide enough for 1024 CPUs.
type cpuMask [16]uint64

func (m *cpuMask) count() (n int) {
	for _, w := range m {
		n += bits.OnesCount64(w)
	}
	return n
}

// last returns a mask holding only the highest CPU of m.
func (m *cpuMask) last() (one cpuMask) {
	for i := len(m) - 1; i >= 0; i-- {
		if m[i] != 0 {
			one[i] = 1 << (63 - bits.LeadingZeros64(m[i]))
			break
		}
	}
	return one
}

func affinity(nr uintptr, m *cpuMask) error {
	if _, _, errno := syscall.RawSyscall(nr, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m))); errno != 0 {
		return errno
	}
	return nil
}

// pinToOneCPU confines the benchmark — generator, daemons and everything
// either forks — to the highest CPU it may run on, by narrowing the
// calling thread's affinity and re-executing itself: the new image starts
// with that mask, so both Go runtimes size themselves for one processor
// and every thread and child inherits it. On a two-vCPU guest a wake-up
// that crosses vCPUs costs anything between a few and a hundred
// microseconds depending on whether the host had parked the idle vCPU,
// which flips a loopback round trip between two latency modes every few
// seconds; with one CPU a reply is a context switch, never a wake-up.
// It returns only when there is nothing to do (one CPU already) or on
// error.
func pinToOneCPU() error {
	var m cpuMask
	if err := affinity(syscall.SYS_SCHED_GETAFFINITY, &m); err != nil {
		return err
	}
	if m.count() <= 1 {
		return nil
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	runtime.LockOSThread()
	one := m.last()
	if err := affinity(syscall.SYS_SCHED_SETAFFINITY, &one); err != nil {
		return err
	}
	return syscall.Exec(exe, os.Args, os.Environ())
}
