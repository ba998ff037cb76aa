// Command peakrss runs a command and prints its wall time, CPU time and
// peak resident set as one JSON line:
//
//	peakrss -log sweep.log -- metis-exp -scenario all ...
//
// It exists because Linux starts an exec'd child's ru_maxrss at the
// high-water mark of the address space that spawned it, and Go spawns from
// its own address space: measured from the benchmark process, a child's
// peak reads as the benchmark's. Spawned from this small process instead,
// the child's own peak is the larger and is what ru_maxrss reports.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"syscall"
	"time"
)

// Usage is the JSON line peakrss prints.
type Usage struct {
	WallNS   int64 `json:"wall_ns"`
	CPUNS    int64 `json:"cpu_ns"`
	MaxRSSKB int64 `json:"maxrss_kb"`
}

func main() {
	logPath := flag.String("log", "", "file the command's output is appended to (required)")
	flag.Parse()
	if *logPath == "" || flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: peakrss -log <file> -- <command> [args...]")
		os.Exit(2)
	}
	log, err := os.OpenFile(*logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		fmt.Fprintln(os.Stderr, "peakrss:", err)
		os.Exit(1)
	}
	cmd := exec.Command(flag.Arg(0), flag.Args()[1:]...)
	cmd.Stdout, cmd.Stderr = log, log
	// If this process is killed, take the command with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	err = cmd.Run()
	wall := time.Since(start)
	log.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "peakrss: %s: %v (log %s)\n", flag.Arg(0), err, *logPath)
		os.Exit(1)
	}
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	json.NewEncoder(os.Stdout).Encode(Usage{
		WallNS:   int64(wall),
		CPUNS:    ru.Utime.Nano() + ru.Stime.Nano(),
		MaxRSSKB: ru.Maxrss,
	})
}
