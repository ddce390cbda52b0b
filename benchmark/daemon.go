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
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one sisimd child process.
type daemon struct {
	cmd *exec.Cmd
	url string // http://127.0.0.1:port

	// stdout (everything after the listening line) and stderr are read
	// only after the process has been waited for.
	stdout bytes.Buffer
	stderr bytes.Buffer
	exited chan struct{} // closed when the stdout reader sees EOF
}

// startDaemon launches sisimd, parses the bound address from its
// "sisimd listening on" line and waits for /healthz to answer 200.
// The context bounds the start-up wait only; the process lives until
// stop.
func startDaemon(ctx context.Context, bin string, flags []string) (*daemon, error) {
	d := &daemon{cmd: exec.Command(bin, flags...), exited: make(chan struct{})}
	out, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	d.cmd.Stderr = &d.stderr
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	addrc := make(chan string, 1) // one send: the listening line
	go func() {
		defer close(d.exited)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			if addr, ok := strings.CutPrefix(line, "sisimd listening on "); ok {
				addrc <- strings.TrimSpace(addr)
				continue
			}
			d.stdout.WriteString(line + "\n")
		}
	}()
	startCtx, cancel := context.WithTimeout(ctx, 20*time.Second)
	defer cancel()
	select {
	case addr := <-addrc:
		d.url = "http://" + addr
	case <-d.exited:
		d.cmd.Wait()
		return nil, fmt.Errorf("sisimd %v exited before listening: %s", flags, d.output())
	case <-startCtx.Done():
		d.kill()
		return nil, fmt.Errorf("sisimd %v: no listening line: %w", flags, startCtx.Err())
	}
	for {
		resp, err := http.Get(d.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-startCtx.Done():
			d.kill()
			return nil, fmt.Errorf("sisimd %s: /healthz never answered 200: %w", d.url, startCtx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func (d *daemon) output() string { return d.stdout.String() + d.stderr.String() }

func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
	d.cmd.Wait()
}

// stop reads the daemon's peak RSS, sends SIGTERM, waits for it to
// end and requires the "drained cleanly" line. A daemon that does not
// exit within the grace period is killed and reported.
func (d *daemon) stop() (rssMB float64, err error) {
	rssMB, rssErr := peakRSSMB(d.cmd.Process.Pid)
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return rssMB, fmt.Errorf("sisimd %s: SIGTERM: %w", d.url, err)
	}
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		d.kill()
		return rssMB, fmt.Errorf("sisimd %s did not exit within 15 s of SIGTERM", d.url)
	}
	waitErr := d.cmd.Wait()
	switch {
	case waitErr != nil:
		return rssMB, fmt.Errorf("sisimd %s: %w: %s", d.url, waitErr, d.output())
	case !strings.Contains(d.output(), "drained cleanly"):
		return rssMB, fmt.Errorf("sisimd %s exited without \"drained cleanly\": %s", d.url, d.output())
	}
	return rssMB, rssErr
}

// env is what one harness process owns outside its own memory: the
// sisimd binary, a scratch directory, and every live daemon. cleanup
// runs on every exit path, including failure and interrupt.
type env struct {
	root    string // module root (holds go.mod and cmd/sisimd)
	sisimd  string // built binary
	scratch string // removed on cleanup
	buildS  float64

	mu      sync.Mutex
	daemons []*daemon
	nextDir int
}

func (e *env) tempDir() (string, error) {
	e.mu.Lock()
	e.nextDir++
	dir := filepath.Join(e.scratch, fmt.Sprintf("d%d", e.nextDir))
	e.mu.Unlock()
	return dir, os.MkdirAll(dir, 0o755)
}

func (e *env) start(ctx context.Context, flags []string) (*daemon, error) {
	d, err := startDaemon(ctx, e.sisimd, flags)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.daemons = append(e.daemons, d)
	e.mu.Unlock()
	return d, nil
}

// stopAll stops every daemon still running and returns their summed
// peak RSS.
func (e *env) stopAll() (rssMB float64, err error) {
	e.mu.Lock()
	ds := e.daemons
	e.daemons = nil
	e.mu.Unlock()
	// Coordinator last started, first stopped: it must not watch its
	// peers vanish.
	for i := len(ds) - 1; i >= 0; i-- {
		rss, serr := ds[i].stop()
		rssMB += rss
		err = errors.Join(err, serr)
	}
	return rssMB, err
}

func (e *env) cleanup() error {
	_, err := e.stopAll()
	return errors.Join(err, os.RemoveAll(e.scratch))
}
