//go:build !linux

package main

import "time"

// waker falls back to the runtime's timers where timerfd is missing.
type waker struct{}

func newWaker() *waker { return &waker{} }

func (*waker) sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }

func (*waker) close() {}
