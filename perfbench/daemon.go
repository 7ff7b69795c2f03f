package main

import (
	"bufio"
	"context"
	"encoding/json"
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

// bootTimeout bounds one daemon boot, recovery included.
const bootTimeout = 60 * time.Second

// daemon is one hhserverd child process.
type daemon struct {
	cmd      *exec.Cmd
	httpAddr string
	wireAddr string
	stderr   tailBuffer
	scanned  chan struct{} // closed once stdout reaches EOF
	reaped   bool
}

// daemons tracks every child the benchmark started, so each one is
// killed and reaped on every exit path.
type daemons struct {
	mu   sync.Mutex
	live []*daemon
}

// bootTimes is what one boot cost, from exec until /healthz answered
// and the wire port accepted: wall time, and the daemon's CPU time.
type bootTimes struct{ wall, cpu time.Duration }

// boot starts hhserverd on cfgPath and returns once /healthz answers
// and the wire port accepts, with what that took from exec.
func (ds *daemons) boot(ctx context.Context, bin, cfgPath string) (*daemon, bootTimes, error) {
	ctx, cancel := context.WithTimeout(ctx, bootTimeout)
	defer cancel()
	d := &daemon{scanned: make(chan struct{})}
	d.cmd = exec.Command(bin, "-config", cfgPath, "-addr", "127.0.0.1:0", "-wire-addr", "127.0.0.1:0")
	// The kernel kills the daemon if the benchmark itself dies without
	// running its cleanup (a panic on another goroutine, a kill -9).
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d.cmd.Stderr = &d.stderr
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, bootTimes{}, err
	}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, bootTimes{}, fmt.Errorf("starting hhserverd: %w", err)
	}
	ds.mu.Lock()
	ds.live = append(ds.live, d)
	ds.mu.Unlock()

	addrs := make(chan [2]string, 1)
	go func() {
		defer close(d.scanned)
		var httpAddr string
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if a, ok := strings.CutPrefix(line, "hhserverd listening on "); ok {
				httpAddr, _, _ = strings.Cut(a, " ")
			} else if a, ok := strings.CutPrefix(line, "hhserverd wire listening on "); ok {
				addrs <- [2]string{httpAddr, a}
			}
		}
		// Keep draining until EOF (Wait must not run before this ends).
	}()
	fail := func(err error) (*daemon, bootTimes, error) {
		ds.kill(d)
		return nil, bootTimes{}, fmt.Errorf("%w; hhserverd stderr: %s", err, d.stderr.String())
	}
	select {
	case a := <-addrs:
		d.httpAddr, d.wireAddr = a[0], a[1]
	case <-d.scanned:
		return fail(fmt.Errorf("hhserverd exited during boot"))
	case <-ctx.Done():
		return fail(fmt.Errorf("hhserverd boot: %w", ctx.Err()))
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+d.httpAddr+"/healthz", nil)
	if err != nil {
		return fail(err)
	}
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := client.Do(req)
	if err != nil {
		return fail(fmt.Errorf("healthz: %w", err))
	}
	var health struct {
		Status string `json:"status"`
	}
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || health.Status != "ok" {
		return fail(fmt.Errorf("healthz: status %d %q (%v)", resp.StatusCode, health.Status, err))
	}
	var dialer net.Dialer
	c, err := dialer.DialContext(ctx, "tcp", d.wireAddr)
	if err != nil {
		return fail(fmt.Errorf("wire port: %w", err))
	}
	bt := bootTimes{wall: time.Since(start)}
	c.Close()
	if bt.cpu, err = d.cpuTime(); err != nil {
		return fail(fmt.Errorf("reading boot CPU time: %w", err))
	}
	return d, bt, nil
}

// kill stops d with SIGKILL and reaps it. Safe to call twice.
func (ds *daemons) kill(d *daemon) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if d.reaped {
		return
	}
	d.reaped = true
	_ = d.cmd.Process.Kill() // fails only if the process is already gone
	<-d.scanned
	_ = d.cmd.Wait() // a killed child always reports "signal: killed"
}

// killAll stops every child still running.
func (ds *daemons) killAll() {
	ds.mu.Lock()
	live := ds.live
	ds.live = nil
	ds.mu.Unlock()
	for _, d := range live {
		ds.kill(d)
	}
}

// peakRSSMiB reads the daemon's VmHWM (peak resident set) in MiB.
func (d *daemon) peakRSSMiB() (float64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// cpuTime sums the CPU time of the daemon's threads (each one's
// scheduler sum_exec_runtime, in ns). With paravirtual steal
// accounting the kernel leaves out time the host stole from the guest,
// so the figure does not grow when other guests load the host.
func (d *daemon) cpuTime() (time.Duration, error) {
	tasks := filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "task")
	ents, err := os.ReadDir(tasks)
	if err != nil {
		return 0, err
	}
	var sum time.Duration
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(tasks, e.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited between ReadDir and here
		}
		f := strings.Fields(string(data))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty schedstat for thread %s", e.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing schedstat of thread %s: %w", e.Name(), err)
		}
		sum += time.Duration(ns)
	}
	return sum, nil
}

// hostSteal reads the guest's cumulative CPU ticks: time the host
// stole from it, and all time.
func hostSteal() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		if i < 8 { // user .. steal; guest time is already in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// tailBuffer keeps the last few KiB written to it: the daemon's stderr,
// quoted when a boot fails.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

const tailMax = 4 << 10

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > tailMax {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-tailMax:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.TrimSpace(string(t.buf))
}
