package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	childTimeout = 150 * time.Second // one child run; the whole benchmark must end within 180 s
	childGrace   = 5 * time.Second   // SIGTERM to SIGKILL
)

// procResult is what one finished child process cost.
type procResult struct {
	Wall   float64 // s, Start to Wait returning
	CPU    float64 // s, user+sys of the child from its rusage
	RSSMiB float64 // ru_maxrss of the child
	Exit   int
	Stdout []byte
	Stderr []byte
	// GenCPU is this (generator) process's own user+sys CPU while the
	// child ran; GenCPU/Wall is the generator_cpu_share.
	GenCPU float64
}

func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// command builds a child that is sent SIGTERM when ctx ends and killed
// childGrace later, so no failure path leaves a process behind.
func command(ctx context.Context, dir, bin string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Dir = dir
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = childGrace
	return cmd
}

func usage(ps *os.ProcessState) (cpu, rssMiB float64) {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return tvSeconds(ru.Utime) + tvSeconds(ru.Stime), float64(ru.Maxrss) / 1024 // Linux: KiB
	}
	return 0, 0
}

// runChild runs bin to completion in dir. A non-zero exit is not an
// error here (the CLI exits 1 when it reports bugs); failing to start,
// or having to kill the child, is.
func runChild(dir, bin string, args ...string) (procResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := command(ctx, dir, bin, args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	gen0 := selfCPU()
	t0 := time.Now()
	err := cmd.Run()
	res := procResult{Wall: time.Since(t0).Seconds(), GenCPU: selfCPU() - gen0, Stdout: out.Bytes(), Stderr: errb.Bytes()}
	if cmd.ProcessState != nil {
		res.CPU, res.RSSMiB = usage(cmd.ProcessState)
		res.Exit = cmd.ProcessState.ExitCode()
	}
	var ee *exec.ExitError
	if err != nil && !(errors.As(err, &ee) && ee.Exited()) {
		return res, fmt.Errorf("%s: %w", bin, err)
	}
	return res, nil
}

// serverProc is a running `pinpoint serve` child.
type serverProc struct {
	cmd    *exec.Cmd
	cancel context.CancelFunc
	stderr bytes.Buffer
	URL    string
}

// freePort binds port 0, notes the port the kernel chose, and releases it
// for the child to bind.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

func startServer(bin string, workers int) (*serverProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	addr := "127.0.0.1:" + strconv.Itoa(port)
	sp := &serverProc{cancel: cancel, URL: "http://" + addr}
	sp.cmd = command(ctx, "", bin, "serve", "-addr", addr, "-workers", strconv.Itoa(workers), "-log-level", "error")
	sp.cmd.Stderr = &sp.stderr
	if err := sp.cmd.Start(); err != nil {
		cancel()
		return nil, err
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(sp.URL + "/v1/ready")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return sp, nil
			}
		}
		if time.Now().After(deadline) {
			sp.stop()
			return nil, fmt.Errorf("server at %s not ready after 15s: %v; stderr: %s", addr, err, sp.stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop ends the server (SIGTERM, then kill after childGrace), waits for
// it, and returns its peak RSS.
func (sp *serverProc) stop() (rssMiB float64) {
	sp.cancel()
	_ = sp.cmd.Wait() // "signal: terminated" is the expected outcome
	if sp.cmd.ProcessState != nil {
		_, rssMiB = usage(sp.cmd.ProcessState)
	}
	return rssMiB
}

// cpuNow reads the live server's user+sys CPU from /proc, so the timed
// window can be charged without the warm-up before it.
func (sp *serverProc) cpuNow() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", sp.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, in clock ticks (100 Hz on Linux).
	rest := string(data[bytes.LastIndexByte(data, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line")
	}
	return (ut + st) / 100, nil
}
