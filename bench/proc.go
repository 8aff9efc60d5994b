package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTick is the kernel's USER_HZ, the unit of the CPU fields of
// /proc/<pid>/stat. It is 100 on every Linux ABI Go supports; reading
// it properly needs sysconf(3), i.e. cgo.
const clockTick = 100

// child is one running tssserve process.
type child struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{} // closed once Wait returned
}

// children tracks every started process and temp dir so that exit —
// normal, failed or signalled — leaves nothing behind.
type children struct {
	mu    sync.Mutex
	procs []*child
	dirs  []string
}

var live children

// freeAddr asks the kernel for an unused loopback port. The port is
// released before the child binds it, so a start can still lose the
// race; startServer retries with a new port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startServer launches bin with args on a free port and returns once
// /healthz answers. Readiness is polled every 2 ms; the wait is part of
// the caller's setup time.
func startServer(bin string, args ...string) (*child, error) {
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		c, err := launch(bin, addr, args)
		if err == nil {
			return c, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("start %s: %w", filepath.Base(bin), lastErr)
}

func launch(bin, addr string, args []string) (*child, error) {
	var stderr bytes.Buffer
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, url: "http://" + addr, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a server we SIGTERM is not an error
		close(c.done)
	}()
	live.mu.Lock()
	live.procs = append(live.procs, c)
	live.mu.Unlock()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-c.done:
			return nil, fmt.Errorf("exited during start: %s", strings.TrimSpace(stderr.String()))
		default:
		}
		resp, err := http.Get(c.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.stop()
	return nil, errors.New("not ready after 10s")
}

// stop SIGTERMs the child (tssserve drains and exits), escalating to
// SIGKILL, and returns once the process has been reaped.
func (c *child) stop() {
	select {
	case <-c.done:
		return
	default:
	}
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.done:
	case <-time.After(8 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.done
	}
}

// tempDir creates a scratch directory under out that stopAll removes.
func tempDir(out, pattern string) (string, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(out, pattern)
	if err != nil {
		return "", err
	}
	live.mu.Lock()
	live.dirs = append(live.dirs, dir)
	live.mu.Unlock()
	return dir, nil
}

// stopAll stops every child still running and removes every temp dir.
func stopAll() {
	live.mu.Lock()
	procs, dirs := live.procs, live.dirs
	live.procs, live.dirs = nil, nil
	live.mu.Unlock()
	for _, c := range procs {
		c.stop()
	}
	for _, d := range dirs {
		_ = os.RemoveAll(d)
	}
}

// cpuSeconds returns the user+system CPU time a process has used.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

// parseStatCPU extracts utime+stime (fields 14 and 15) from a
// /proc/<pid>/stat line. The command name (field 2) may contain spaces
// and parentheses, so fields are counted from the last ')'.
func parseStatCPU(stat string) (float64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed stat line %q", stat)
	}
	f := strings.Fields(stat[i+1:]) // f[0] is field 3 (state)
	if len(f) < 13 {
		return 0, fmt.Errorf("short stat line %q", stat)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed CPU fields in %q", stat)
	}
	return float64(utime+stime) / clockTick, nil
}

// peakRSSMB returns a process's resident-set high-water mark.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseStatusHWM(string(b))
}

// parseStatusHWM extracts VmHWM (in kB) from /proc/<pid>/status.
func parseStatusHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("malformed VmHWM line %q", line)
		}
		kb, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, errors.New("no VmHWM in status")
}
