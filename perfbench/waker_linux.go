package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// waker wakes the load generator at due times with microsecond
// precision. The runtime's own timers fire through the network poller
// with millisecond granularity when no processor is busy, and a sleep in
// the kernel holds a processor whose release depends on the runtime's
// background monitor; either makes the generator's lateness the largest
// latency measured, and the second makes it vary from run to run. A
// timerfd read through the network poller parks the goroutine like any
// socket read and wakes it when the kernel's high-resolution timer
// expires.
type waker struct {
	fd int
	f  *os.File // nil: timerfd unavailable, fall back to time.Sleep
}

func newWaker() *waker {
	const clockMonotonic, tfdNonblock, tfdCloexec = 1, 0x800, 0x80000
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return &waker{fd: -1}
	}
	return &waker{fd: int(fd), f: os.NewFile(fd, "timerfd")}
}

func (w *waker) sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	if w.f == nil {
		time.Sleep(d)
		return
	}
	// struct itimerspec{it_interval, it_value}, relative, one-shot
	its := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(w.fd), 0,
		uintptr(unsafe.Pointer(&its)), 0, 0, 0); errno != 0 {
		time.Sleep(d)
		return
	}
	var buf [8]byte // expiration count
	if _, err := w.f.Read(buf[:]); err != nil {
		time.Sleep(time.Until(t))
	}
}

func (w *waker) close() {
	if w.f != nil {
		w.f.Close()
	}
}
