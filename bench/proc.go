package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// readyCap bounds how long a spawned daemon may take to answer /readyz.
const readyCap = 15 * time.Second

// env is one invocation's process environment: where the repository is,
// the scratch directory everything is written under, the daemon binaries
// built for this invocation, and every child process still alive. All
// exit paths go through close, so no child or temp dir outlives the run.
type env struct {
	root string // repository root (parent of bench/)
	work string // <root>/.bench_build/run-<pid>; removed on close

	mu      sync.Mutex
	bins    map[string]string
	procs   map[*daemon]struct{}
	closed  bool // no new children may start
	closing sync.Once
}

// findRoot locates the repository from `go env GOMOD`: the benchmark is
// its own module in <root>/bench, so the module file's directory is
// bench/ when run as `go run -C bench .`; from the root module it is
// the root itself.
func findRoot() (string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", fmt.Errorf("go env GOMOD: %w", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", errors.New("not inside a Go module (run from the repository: go run -C bench .)")
	}
	dir := filepath.Dir(gomod)
	root := dir
	if filepath.Base(dir) == "bench" {
		root = filepath.Dir(dir)
	}
	for _, need := range []string{"go.mod", "cmd/monitord/main.go", "cmd/trustdomaind/main.go", "bench/go.mod"} {
		if _, err := os.Stat(filepath.Join(root, need)); err != nil {
			return "", fmt.Errorf("repository root %s: %w", root, err)
		}
	}
	return root, nil
}

func newEnv() (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	base := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	sweepStale(base)
	work, err := os.MkdirTemp(base, fmt.Sprintf("run-%d-", os.Getpid()))
	if err != nil {
		return nil, err
	}
	return &env{root: root, work: work, bins: map[string]string{}, procs: map[*daemon]struct{}{}}, nil
}

// sweepStale removes the scratch directories of earlier invocations that
// were SIGKILLed before they could clean up (their pid is in the name).
func sweepStale(base string) {
	dirs, _ := filepath.Glob(filepath.Join(base, "run-*"))
	for _, dir := range dirs {
		parts := strings.Split(filepath.Base(dir), "-")
		if pid, err := strconv.Atoi(parts[1]); err == nil && syscall.Kill(pid, 0) == syscall.ESRCH {
			os.RemoveAll(dir)
		}
	}
}

// close kills every live child by process group and removes the scratch
// directory. Every caller returns only once that is done, so a signal
// handler and a deferred call cannot race each other to os.Exit.
func (e *env) close() {
	e.closing.Do(func() {
		e.mu.Lock()
		e.closed = true
		procs := make([]*daemon, 0, len(e.procs))
		for d := range e.procs {
			procs = append(procs, d)
		}
		e.mu.Unlock()
		for _, d := range procs {
			d.kill()
		}
		os.RemoveAll(e.work)
	})
}

// guard installs the exit-path handlers: SIGINT/SIGTERM and a hard
// wall-clock deadline both clean up and exit non-zero. The returned stop
// disarms them.
func (e *env) guard(deadline time.Duration) (stop func()) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case s := <-sig:
			fmt.Fprintf(os.Stderr, "bench: %v: cleaning up\n", s)
			e.close()
			os.Exit(130)
		case <-time.After(deadline):
			fmt.Fprintf(os.Stderr, "bench: hard deadline of %v exceeded\n", deadline)
			e.dumpLogs()
			e.close()
			os.Exit(3)
		case <-done:
		}
	}()
	return func() { signal.Stop(sig); close(done) }
}

// build compiles repro/cmd/<name> once per invocation.
func (e *env) build(name string) (string, error) {
	e.mu.Lock()
	bin, ok := e.bins[name]
	e.mu.Unlock()
	if ok {
		return bin, nil
	}
	bin = filepath.Join(e.work, "bin", name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building %s: %v\n%s", name, err, out)
	}
	e.mu.Lock()
	e.bins[name] = bin
	e.mu.Unlock()
	return bin, nil
}

// dir makes a fresh subdirectory of the scratch directory.
func (e *env) dir(prefix string) (string, error) {
	return os.MkdirTemp(e.work, prefix+"-")
}

func (e *env) dumpLogs() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for d := range e.procs {
		fmt.Fprintf(os.Stderr, "--- %s log tail ---\n%s\n", d.name, d.logTail())
	}
}

// daemon is one child process in its own process group, its output
// captured to a log file.
type daemon struct {
	e       *env
	name    string
	cmd     *exec.Cmd
	logPath string
	started time.Time
	waited  chan struct{} // closed once cmd.Wait returned
}

// freePort reserves an ephemeral loopback port and releases it for the
// daemon to bind, the way internal/e2e does; spawn retries once when the
// small reuse race loses.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// start launches bin with args, logging to logPath.
func (e *env) start(name, bin, logPath string, args ...string) (*daemon, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// Own process group so one kill reaches anything the daemon forks;
	// Pdeathsig so a SIGKILLed benchmark does not orphan its daemons.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	d := &daemon{e: e, name: name, cmd: cmd, logPath: logPath, waited: make(chan struct{})}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, errors.New("environment closed")
	}
	d.started = time.Now()
	if err := cmd.Start(); err != nil {
		e.mu.Unlock()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	e.procs[d] = struct{}{}
	e.mu.Unlock()
	go func() { cmd.Wait(); close(d.waited) }()
	return d, nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// kill SIGKILLs the daemon's process group and waits for it to be reaped.
func (d *daemon) kill() {
	syscall.Kill(-d.pid(), syscall.SIGKILL)
	<-d.waited
	d.e.mu.Lock()
	delete(d.e.procs, d)
	d.e.mu.Unlock()
}

func (d *daemon) exited() bool {
	select {
	case <-d.waited:
		return true
	default:
		return false
	}
}

// logTail returns the last 2 KiB of the daemon's log.
func (d *daemon) logTail() string {
	b, err := os.ReadFile(d.logPath)
	if err != nil {
		return err.Error()
	}
	if len(b) > 2048 {
		b = b[len(b)-2048:]
	}
	return string(bytes.TrimSpace(b))
}

// waitReady polls /readyz until 200, the daemon dies, or readyCap passes.
func (d *daemon) waitReady(metricsAddr string) error {
	deadline := time.Now().Add(readyCap)
	client := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		if d.exited() {
			return fmt.Errorf("%s exited before becoming ready:\n%s", d.name, d.logTail())
		}
		resp, err := client.Get("http://" + metricsAddr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready after %v:\n%s", d.name, readyCap, d.logTail())
}

// bindFailed reports whether the daemon died because a reserved port was
// taken between freePort and its own listen.
func (d *daemon) bindFailed() bool {
	return d.exited() && strings.Contains(d.logTail(), "address already in use")
}

// spawnReady starts a daemon on freshly reserved ports and waits for
// /readyz, retrying once on a bind failure. mkArgs receives the RPC and
// metrics addresses (daemons that pick their own RPC ports ignore rpc).
func (e *env) spawnReady(name, dir string, mkArgs func(rpc, metrics string) []string) (d *daemon, rpc, metrics string, err error) {
	bin, err := e.build(name)
	if err != nil {
		return nil, "", "", err
	}
	for attempt := 0; attempt < 2; attempt++ {
		if rpc, err = freePort(); err != nil {
			return nil, "", "", err
		}
		if metrics, err = freePort(); err != nil {
			return nil, "", "", err
		}
		logPath := filepath.Join(dir, fmt.Sprintf("%s-%d.log", name, time.Now().UnixNano()))
		d, err = e.start(name, bin, logPath, mkArgs(rpc, metrics)...)
		if err != nil {
			return nil, "", "", err
		}
		if err = d.waitReady(metrics); err == nil {
			return d, rpc, metrics, nil
		}
		retry := d.bindFailed()
		d.kill()
		if !retry {
			break
		}
	}
	return nil, "", "", err
}

// procCPU returns the CPU time a process has consumed. It sums the
// on-CPU nanoseconds of every thread from /proc/<pid>/task/*/schedstat,
// which resolves the few hundred milliseconds a lightly loaded daemon
// uses in one window; kernels without scheduler statistics fall back to
// utime+stime from /proc/<pid>/stat at its 10 ms tick.
func procCPU(pid int) (time.Duration, error) {
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	var ns uint64
	seen := false
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // thread exited between the glob and the read
		}
		if f := strings.Fields(string(b)); len(f) > 0 {
			if n, err := strconv.ParseUint(f[0], 10, 64); err == nil {
				ns += n
				seen = true
			}
		}
	}
	if seen {
		return time.Duration(ns), nil
	}
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

// parseStatCPU extracts utime+stime (fields 14 and 15) from a
// /proc/<pid>/stat line; the command name may contain spaces, so fields
// are counted from the closing parenthesis.
func parseStatCPU(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("malformed stat line")
	}
	f := strings.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0, errors.New("short stat line")
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed stat cpu fields")
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// procPeakRSSMB reads VmHWM (peak resident set) in MiB.
func procPeakRSSMB(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// selfCPU is the generator's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}
