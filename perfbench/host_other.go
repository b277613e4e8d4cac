//go:build !linux

package main

import "time"

func fsType(string) string { return "unknown" }

func quiesce() {}

func cpuTicks() []int64 { return nil }

func processCPU() time.Duration { return 0 }
