package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one running prionnd process.
type daemon struct {
	cmd   *exec.Cmd
	addr  string
	setup time.Duration // exec to the first 200 on /readyz
	done  chan error    // receives cmd.Wait's result once
	log   *lockedBuffer
}

// lockedBuffer collects the daemon's stderr for error reports.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startDaemon execs prionnd on a loopback port the kernel picks and
// waits until /readyz answers 200. The set-up time runs from just
// before exec to that answer: checkpoint load, snapshot, int8
// calibration and listener start.
func startDaemon(bin string, args []string) (*daemon, error) {
	args = append([]string{"-addr", "127.0.0.1:0"}, args...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout = io.Discard
	// A daemon never outlives the benchmark, even one killed mid-run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pr, pw := io.Pipe()
	cmd.Stderr = pw
	d := &daemon{cmd: cmd, done: make(chan error, 1), log: &lockedBuffer{}}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			line := sc.Text()
			_, _ = fmt.Fprintln(d.log, line)
			if _, a, ok := strings.Cut(line, "serving on "); ok {
				select {
				case addrCh <- strings.TrimSpace(a):
				default:
				}
			}
		}
		_, _ = io.Copy(io.Discard, pr)
	}()
	start := time.Now()
	if err := cmd.Start(); err != nil {
		_ = pw.Close()
		return nil, err
	}
	go func() {
		err := cmd.Wait()
		_ = pw.Close()
		d.done <- err
	}()
	select {
	case d.addr = <-addrCh:
	case err := <-d.done:
		d.done <- err
		return nil, fmt.Errorf("prionnd exited before listening (%v):\n%s", err, d.log.String())
	case <-time.After(90 * time.Second):
		d.kill()
		return nil, fmt.Errorf("prionnd did not listen within 90s:\n%s", d.log.String())
	}
	hc := &http.Client{Timeout: 2 * time.Second}
	for {
		resp, err := hc.Get("http://" + d.addr + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				//prionnvet:ignore time-dep -- timing is what the benchmark measures
				d.setup = time.Since(start)
				break
			}
		}
		if time.Since(start) > 90*time.Second {
			d.kill()
			return nil, fmt.Errorf("prionnd not ready within 90s:\n%s", d.log.String())
		}
		time.Sleep(time.Millisecond)
	}
	hc.CloseIdleConnections()
	return d, nil
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM missing from /proc status")
}

// stop drains the daemon with SIGTERM and waits for it to exit; a daemon
// that does not exit within the grace period is killed.
func (d *daemon) stop(ctx context.Context) error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		d.kill()
		return err
	}
	select {
	case err := <-d.done:
		d.done <- err
		if err != nil {
			return fmt.Errorf("prionnd exit: %v:\n%s", err, d.log.String())
		}
		return nil
	case <-ctx.Done():
		d.kill()
		return fmt.Errorf("prionnd did not drain: %w", ctx.Err())
	}
}

// kill ends the process and waits for it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	err := <-d.done
	d.done <- err
}

// stopWithin is stop with a deadline.
func (d *daemon) stopWithin(limit time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	return d.stop(ctx)
}
