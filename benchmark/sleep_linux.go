package main

import (
	"syscall"
	"time"
)

// preciseSleep blocks the calling thread in nanosleep(2). Unlike
// time.Sleep it does not go through the Go runtime's timers, which an
// idle process serves from epoll_wait at whole-millisecond granularity
// (a 50 µs time.Sleep returns after about 1.1 ms on the reference box,
// a 50 µs nanosleep after about 0.11 ms).
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var rem syscall.Timespec
		if err := syscall.Nanosleep(&ts, &rem); err != syscall.EINTR {
			return
		}
		ts = rem
	}
}
