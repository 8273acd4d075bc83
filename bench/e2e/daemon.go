package main

import (
	"bytes"
	"encoding/json"
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

// env is what one benchmark process owns outside its own memory: the
// committed contract (BENCHMARK.json), the build directory inside the
// checkout, the lagraphd binary, and every child and temporary directory
// that must be gone when the process exits.
type env struct {
	root     string        // repository root (holds BENCHMARK.json and cmd/lagraphd)
	bf       benchmarkFile // BENCHMARK.json: the one place metric names, units and bounds live
	buildDir string        // <root>/.bench_build: the daemon binary and temporary data
	lagraphd string        // built daemon binary; empty until a run needs a daemon
	buildS   float64

	mu      sync.Mutex
	daemons map[*daemon]struct{}
	tmpDirs map[string]struct{}
}

// findRoot walks up from the working directory to the repository root: the
// directory that holds cmd/lagraphd.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "lagraphd", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no cmd/lagraphd above the working directory: run from inside the repository")
		}
		dir = parent
	}
}

// newEnv finds the repository and reads BENCHMARK.json.
func newEnv() (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	e := &env{
		root: root, buildDir: filepath.Join(root, ".bench_build"),
		daemons: map[*daemon]struct{}{}, tmpDirs: map[string]struct{}{},
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &e.bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return e, nil
}

// buildDaemon builds lagraphd once per process into the checkout's build
// directory (the driver allows no write outside the checkout). The Go build
// cache makes every build after the first a sub-second no-op.
func (e *env) buildDaemon() error {
	if e.lagraphd != "" {
		return nil
	}
	if err := os.MkdirAll(e.buildDir, 0o755); err != nil {
		return err
	}
	bin := filepath.Join(e.buildDir, "lagraphd")
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/lagraphd")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/lagraphd: %v\n%s", err, out)
	}
	e.lagraphd, e.buildS = bin, time.Since(t0).Seconds()
	return nil
}

// tempDir makes a directory under the build directory — the filesystem the
// daemon's -data lives on — that cleanup removes.
func (e *env) tempDir(prefix string) (string, error) {
	if err := os.MkdirAll(e.buildDir, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(e.buildDir, prefix)
	if err != nil {
		return "", err
	}
	e.mu.Lock()
	e.tmpDirs[dir] = struct{}{}
	e.mu.Unlock()
	return dir, nil
}

func (e *env) removeTemp(dir string) {
	e.mu.Lock()
	delete(e.tmpDirs, dir)
	e.mu.Unlock()
	os.RemoveAll(dir)
}

// cleanup kills every child still running and removes every temporary
// directory. It runs on normal return, on failure and on SIGINT/SIGTERM.
func (e *env) cleanup() {
	e.mu.Lock()
	ds := make([]*daemon, 0, len(e.daemons))
	for d := range e.daemons {
		ds = append(ds, d)
	}
	dirs := make([]string, 0, len(e.tmpDirs))
	for dir := range e.tmpDirs {
		dirs = append(dirs, dir)
	}
	e.mu.Unlock()
	for _, d := range ds {
		d.kill()
	}
	for _, dir := range dirs {
		e.removeTemp(dir)
	}
}

// daemon is one spawned lagraphd.
type daemon struct {
	env    *env
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	stderr bytes.Buffer
	exited chan struct{} // closed once Wait returned
	readyS float64       // exec → /readyz 200
}

// freeAddr picks a loopback port nothing listens on. The listener that
// found it is closed again, so a last dial confirms the port is silent: the
// harness refuses to start a daemon on a port that answers.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return "", err
	}
	if c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		c.Close()
		return "", fmt.Errorf("port %s answers before the daemon started", addr)
	}
	return addr, nil
}

// startDaemon spawns lagraphd and waits for /readyz. dataDir empty runs it
// volatile; otherwise durable with the flush policy the benchmark fixes:
// fsync per batch and no background snapshots, so journal counts repeat.
func (e *env) startDaemon(dataDir string) (*daemon, error) {
	if err := e.buildDaemon(); err != nil {
		return nil, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", addr}
	if dataDir != "" {
		args = append(args, "-data", dataDir, "-wal-sync=true", "-snapshot-interval=0")
	}
	d := &daemon{env: e, base: "http://" + addr, exited: make(chan struct{})}
	d.cmd = exec.Command(e.lagraphd, args...)
	d.cmd.Stderr = &d.stderr
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.daemons[d] = struct{}{}
	e.mu.Unlock()
	//grblint:ignore goroutine-lifecycle: Wait returns when the child exits, and kill or env.cleanup ends every child
	go func() {
		d.cmd.Wait() // exit status is irrelevant: the harness stops daemons with SIGKILL
		close(d.exited)
	}()

	probe := &http.Client{Timeout: time.Second}
	deadline := t0.Add(60 * time.Second)
	for {
		resp, err := probe.Get(d.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.readyS = time.Since(t0).Seconds()
				probe.CloseIdleConnections()
				return d, nil
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("lagraphd exited before it was ready; stderr:\n%s", d.stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("lagraphd not ready after 60 s; stderr:\n%s", d.stderr.String())
		}
		time.Sleep(time.Millisecond)
	}
}

// peakRSSMiB reads the daemon's VmHWM; call it before kill.
func (d *daemon) peakRSSMiB() (float64, error) { return peakRSSMiB(d.cmd.Process.Pid) }

// peakRSSMiB returns VmHWM of pid from /proc, in MiB.
func peakRSSMiB(pid int) (float64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM line %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// kill stops the daemon the way a crash would (SIGKILL) and waits until the
// process is gone. Safe to call twice.
func (d *daemon) kill() {
	d.cmd.Process.Signal(syscall.SIGKILL) // error means it already exited
	<-d.exited
	d.env.mu.Lock()
	delete(d.env.daemons, d)
	d.env.mu.Unlock()
}
