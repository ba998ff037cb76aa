//go:build unix

package shmring

import (
	"os"
	"syscall"
)

// mmap maps size bytes of f shared and read-write: both peers see each
// other's stores, and the mapping outlives the descriptor (f is closed right
// after mapping) and the file name (the creator unlinks once both sides are
// mapped). Slots are touched at random, so read-ahead is advised off.
func mmap(f *os.File, size int) ([]byte, error) {
	data, err := syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return nil, err
	}
	adviseRandom(data)
	return data, nil
}

func munmap(data []byte) error {
	return syscall.Munmap(data)
}
