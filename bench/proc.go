package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// binaries are the shipped programs under test, built from the tree.
type binaries struct{ hetindex, hetserve string }

// buildBinaries compiles hetindex and hetserve from root into dir. It
// is not part of any timing.
func buildBinaries(ctx context.Context, root, dir string) (binaries, error) {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", dir+string(filepath.Separator), "./cmd/hetindex", "./cmd/hetserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return binaries{}, fmt.Errorf("go build in %s: %v\n%s", root, err, out)
	}
	return binaries{filepath.Join(dir, "hetindex"), filepath.Join(dir, "hetserve")}, nil
}

// usage is what one child cost.
type usage struct {
	wall  time.Duration
	cpu   time.Duration // user+sys
	rssMB float64       // peak resident set
}

// vmHWM reads a live process's peak resident set from /proc, in MiB.
// The ru_maxrss a parent gets from wait4 will not do: at exec Linux
// folds the resident set the child had as a copy of its parent into
// it, so a child of this process never reports less than this
// process's own few hundred MiB.
func vmHWM(pid int) float64 {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	_, rest, ok := strings.Cut(string(b), "VmHWM:")
	if !ok {
		return 0
	}
	kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
	return kb / 1024
}

// runIndex runs one hetindex build from exec to exit.
func runIndex(ctx context.Context, bin, corpusDir, outDir string) (usage, error) {
	cmd := exec.CommandContext(ctx, bin, "-corpus", corpusDir, "-out", outDir, "-concurrent", "-merge", "-codec", "auto")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return usage{}, err
	}
	// The peak is polled while the child runs; what it grows in its last
	// few milliseconds is missed.
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	var rss float64
	for {
		select {
		case err := <-done:
			wall := time.Since(t0)
			if err != nil {
				return usage{}, fmt.Errorf("hetindex: %v: %s", err, stderr.String())
			}
			ps := cmd.ProcessState
			return usage{wall: wall, cpu: ps.UserTime() + ps.SystemTime(), rssMB: rss}, nil
		case <-time.After(10 * time.Millisecond):
			rss = max(rss, vmHWM(cmd.Process.Pid))
		}
	}
}

// server is one running hetserve child.
type server struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	start  time.Duration
	stderr bytes.Buffer
	exited chan struct{} // closed once Wait has returned
}

// startServer execs hetserve with args plus a free loopback -addr and
// returns once /healthz answers 200; start is exec to that answer.
func startServer(ctx context.Context, bin string, args ...string) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	s := &server{base: "http://" + addr, exited: make(chan struct{})}
	s.cmd = exec.CommandContext(ctx, bin, append(args, "-addr", addr)...)
	s.cmd.Stderr = &s.stderr
	s.cmd.WaitDelay = 5 * time.Second
	t0 := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() { s.cmd.Wait(); close(s.exited) }()
	client := &http.Client{Timeout: time.Second}
	for {
		if resp, err := client.Get(s.base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.start = time.Since(t0)
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("hetserve exited before healthy: %s", s.stderr.String())
		case <-ctx.Done():
			<-s.exited
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Since(t0) > 20*time.Second {
			s.cmd.Process.Kill()
			<-s.exited
			return nil, fmt.Errorf("hetserve not healthy after 20s: %s", s.stderr.String())
		}
	}
}

// cpuNow reads the child's user+sys time so far from /proc, so a timed
// window can be charged its own CPU and not warm-up's.
func (s *server) cpuNow() time.Duration {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(s.cmd.Process.Pid) + "/stat")
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th of the line, in clock ticks of 10 ms.
	rest := string(b[bytes.LastIndexByte(b, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(ut+st) * 10 * time.Millisecond
}

// stop asks the server to shut down (a live server seals its memtable
// on the way out), waits for it and returns what it cost.
func (s *server) stop() (usage, error) {
	rss := vmHWM(s.cmd.Process.Pid)
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
		return usage{}, fmt.Errorf("hetserve did not exit on SIGTERM: %s", s.stderr.String())
	}
	ps := s.cmd.ProcessState
	return usage{cpu: ps.UserTime() + ps.SystemTime(), rssMB: rss}, nil
}
