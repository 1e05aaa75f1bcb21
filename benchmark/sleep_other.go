//go:build !linux

package main

import "time"

// preciseSleep falls back to the runtime's timers where nanosleep(2) is
// not directly available; the pacer then yields for longer.
func preciseSleep(d time.Duration) { time.Sleep(d) }
