//go:build unix && !linux

package shmring

// adviseRandom is a no-op where read-ahead advice is not wired up.
func adviseRandom(data []byte) {}
