package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one metis-serve subprocess.
type daemon struct {
	cmd  *exec.Cmd
	port int    // HTTP port on 127.0.0.1
	sock string // unix socket path, relative to the working directory
	// exited is closed once the process has been reaped.
	exited chan struct{}
}

// readyLine is what metis-serve prints once its unix listener is bound.
const readyLine = "framed binary protocol on unix://"

// startDaemon execs metis-serve with args plus the listener flags and
// returns once its socket accepts connections. Its output goes to logPath.
func startDaemon(ctx context.Context, e *env, sock, logPath string, args []string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	log, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	d := &daemon{port: port, sock: sock, exited: make(chan struct{})}
	full := append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", port), "-uds", sock}, args...)
	d.cmd = exec.Command(e.exe("metis-serve"), full...)
	d.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(e.nproc))
	d.cmd.Stderr = log
	out, err := d.cmd.StdoutPipe()
	if err != nil {
		log.Close()
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("start metis-serve: %w", err)
	}
	ready := make(chan struct{})
	go func() {
		// Copy the daemon's output to its log until the pipe closes (the
		// process exited), then reap it.
		sc := bufio.NewScanner(out)
		signalled := false
		for sc.Scan() {
			fmt.Fprintln(log, sc.Text())
			if !signalled && strings.Contains(sc.Text(), readyLine) {
				close(ready)
				signalled = true
			}
		}
		d.cmd.Wait()
		log.Close()
		close(d.exited)
	}()
	select {
	case <-ready:
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("metis-serve exited before serving (log %s)", logPath)
	case <-ctx.Done():
		d.stop()
		return nil, ctx.Err()
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("metis-serve did not come up within 30 s")
	}
}

// stop terminates the daemon and waits until it has exited: SIGTERM, then
// SIGKILL if it has not drained within 5 s.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(5 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
}

// pid returns the daemon's process id.
func (d *daemon) pid() int { return d.cmd.Process.Pid }

// httpBase is the daemon's HTTP base URL.
func (d *daemon) httpBase() string { return fmt.Sprintf("http://127.0.0.1:%d", d.port) }

// freePort asks the kernel for an unused loopback TCP port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// procCPU returns a process's user + system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields after its
	// closing parenthesis are space-separated: state is field 3, utime 14,
	// stime 15.
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	// /proc reports clock ticks of USER_HZ, which Linux fixes at 100.
	return time.Duration(utime+stime) * 10 * time.Millisecond, nil
}

// procPeakRSSKB returns a process's peak resident set (VmHWM) in kB.
func procPeakRSSKB(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
