package shmring

import "syscall"

// adviseRandom tells the kernel that a segment is touched slot by slot, not
// streamed. A segment file on a disk-backed directory otherwise faults in a
// read-ahead window around every slot touch, which inflates each mapping's
// resident set by megabytes. The advice only affects paging, so a failure is
// ignored.
func adviseRandom(data []byte) {
	_ = syscall.Madvise(data, syscall.MADV_RANDOM)
}
