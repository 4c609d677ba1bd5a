package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
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

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it
// is 100 on every Linux architecture Go supports.
const clockTicks = 100

// daemon is one gpufreqd process the benchmark launched.
type daemon struct {
	name    string
	cmd     *exec.Cmd
	url     string
	started time.Time
	done    chan struct{}
}

// freeAddr returns a loopback address with a port that was free a moment
// ago.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startDaemon launches gpufreqd with the given flags on a fresh loopback
// port; its log goes to <logDir>/<name>.log.
func startDaemon(bin, name, logDir string, args ...string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(bin, "gpufreqd"), append([]string{"-addr", addr}, args...)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	d := &daemon{name: name, cmd: cmd, url: "http://" + addr, done: make(chan struct{})}
	d.started = time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	go func() {
		_ = cmd.Wait() // how it exited is in its log
		logf.Close()
		close(d.done)
	}()
	return d, nil
}

// alive reports whether the process is still running.
func (d *daemon) alive() bool {
	select {
	case <-d.done:
		return false
	default:
		return true
	}
}

// stop sends SIGTERM, waits for the process to exit (SIGKILL after 10 s),
// and returns once it has.
func (d *daemon) stop() {
	if !d.alive() {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an exited process is fine
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// cpu returns the process's user+system CPU time so far, summed over all
// its threads.
func (d *daemon) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("%s cpu: %w", d.name, err)
	}
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("%s cpu: malformed stat", d.name)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("%s cpu: short stat", d.name)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("%s cpu: %w", d.name, err)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// peakRSS returns the process's peak resident set size (VmHWM) in MB.
func (d *daemon) peakRSS() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("%s rss: %w", d.name, err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("%s rss: %w", d.name, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s rss: no VmHWM", d.name)
}

// group is a set of daemons measured together.
type group []*daemon

func (g group) cpu() (time.Duration, error) {
	var sum time.Duration
	for _, d := range g {
		c, err := d.cpu()
		if err != nil {
			return 0, err
		}
		sum += c
	}
	return sum, nil
}

func (g group) peakRSS() (float64, error) {
	var sum float64
	for _, d := range g {
		r, err := d.peakRSS()
		if err != nil {
			return 0, err
		}
		sum += r
	}
	return sum, nil
}

// stop stops the daemons in reverse launch order.
func (g group) stop() {
	for i := len(g) - 1; i >= 0; i-- {
		g[i].stop()
	}
}

// client is the benchmark's HTTP client: keep-alive, at most one
// connection per daemon, no compression.
var client = &http.Client{
	Timeout: 120 * time.Second,
	Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	},
}

// post sends one request and returns the status and the whole body.
func post(url, ctype string, body []byte) (int, []byte, error) {
	resp, err := client.Post(url, ctype, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// get fetches a URL and returns the status and the whole body.
func get(url string) (int, []byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// copyTree copies a snapshot directory (regular files, one level of
// subdirectories) so each run's daemons own their registry.
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}
