package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/service"
	"repro/pkg/client"
)

// gpsdPath is where run.sh builds the daemon, relative to bench/.
const gpsdPath = "out/gpsd"

// daemon is one gpsd subprocess on a free loopback port.
type daemon struct {
	cmd     *exec.Cmd
	exited  chan struct{}
	c       *client.Client
	logPath string
}

// startDaemon execs gpsd with its default flags (durable runs add only
// -data-dir: binary engine, -commit-interval 0) and returns once /healthz
// answers, polling every millisecond.
func startDaemon(ctx context.Context, runDir, dataDir string, rt *countingTransport) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("pick a free port: %w", err)
	}
	addr := l.Addr().String()
	l.Close()
	args := []string{"-addr", addr}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir)
	}
	logFile, err := os.CreateTemp(runDir, "gpsd-*.log")
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor
	cmd := exec.Command(gpsdPath, args...)
	cmd.Stderr = logFile
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s (run.sh builds it): %w", gpsdPath, err)
	}
	opts := []client.Option{client.WithTimeout(30 * time.Second)}
	if rt != nil {
		opts = append(opts, client.WithHTTPClient(&http.Client{Transport: rt, Timeout: 30 * time.Second}))
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{}), c: client.New("http://"+addr, opts...), logPath: logFile.Name()}
	go func() {
		_ = cmd.Wait() // the exit status is not interesting: stop() decides what a failure is
		close(d.exited)
	}()
	err = poll(ctx, d, func() (bool, error) { return d.c.Health(ctx) == nil, nil })
	if err != nil {
		d.stop()
		return nil, fmt.Errorf("gpsd never became healthy: %w\n%s", err, d.logTail())
	}
	return d, nil
}

// poll retries ready every millisecond until it holds, the daemon dies,
// 60 s pass or ctx ends.
func poll(ctx context.Context, d *daemon, ready func() (bool, error)) error {
	deadline := time.After(60 * time.Second)
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		ok, err := ready()
		if err != nil || ok {
			return err
		}
		select {
		case <-tick.C:
		case <-d.exited:
			return errors.New("gpsd exited")
		case <-deadline:
			return errors.New("timed out after 60s")
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// loadGraph registers the workload's graph and waits until it can serve at
// full speed: index ready, or merely registered when loaded with no_index.
func (d *daemon) loadGraph(ctx context.Context, spec service.LoadSpec) error {
	if _, err := d.c.LoadGraph(ctx, graphName, spec); err != nil {
		return fmt.Errorf("load graph: %w\n%s", err, d.logTail())
	}
	want := "ready"
	if spec.NoIndex {
		want = "disabled"
	}
	return poll(ctx, d, func() (bool, error) {
		gi, err := d.c.Graph(ctx, graphName)
		return err == nil && gi.Index.State == want, err
	})
}

// stop sends SIGTERM, waits for the graceful shutdown and kills the
// process if that takes more than ten seconds. It returns once the process
// has been reaped.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// logTail returns the end of the daemon's stderr for failure reports.
func (d *daemon) logTail() string {
	data, err := os.ReadFile(d.logPath)
	if err != nil {
		return "(no gpsd log: " + err.Error() + ")"
	}
	if len(data) > 4096 {
		data = data[len(data)-4096:]
	}
	return "--- gpsd stderr (" + filepath.Base(d.logPath) + ") ---\n" + string(data)
}
