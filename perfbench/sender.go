package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// The live-soak's frames come from a child process, the sender, over TCP, as
// they would from another host. In the benchmark's own process the pacing
// loop would share the Go scheduler with the program under test: a sleeping
// sender wakes up milliseconds late on a small virtual machine, and one that
// spins holds a processor that the runtime would otherwise use to poll the
// network, so that the listener waits for its frames while the program's
// goroutines hold the other processors. Either way the due-time latency
// would charge the benchmark's own delays to the program.
//
// The protocol is one line each way per soak: the parent writes the
// listener's address and the first frame's due time in Unix nanoseconds;
// the sender writes the frames at soakRate, closes the connection, and
// answers with a JSON array of how late, in milliseconds, it wrote each
// frame. The sender exits when its input closes.

// soakInterval is the time between two frames' due times.
const soakInterval = time.Duration(float64(soakFrameRecords) / soakRate * float64(time.Second))

// runSender is the sender's main: it builds the workload's frames from the
// seed, as the parent does, and sends them once per request.
func runSender(seed int64) error {
	runtime.GOMAXPROCS(1)
	if err := lowerPriority(); err != nil {
		return err
	}
	in, err := setupLiveSoak(seed, new(arena))
	if err != nil {
		return err
	}
	out := bufio.NewWriter(os.Stdout)
	fmt.Fprintln(out, "ready")
	if err := out.Flush(); err != nil {
		return err
	}
	req := bufio.NewScanner(os.Stdin)
	for req.Scan() {
		var addr string
		var startNs int64
		if _, err := fmt.Sscan(req.Text(), &addr, &startNs); err != nil {
			return fmt.Errorf("sender request %q: %w", req.Text(), err)
		}
		late, err := sendFrames(addr, in.frames, time.Unix(0, startNs))
		if err != nil {
			return err
		}
		if err := json.NewEncoder(out).Encode(late); err != nil {
			return err
		}
		if err := out.Flush(); err != nil {
			return err
		}
	}
	return req.Err()
}

// lowerPriority gives every thread of the process the lowest scheduling
// priority (threads created later inherit it), so that the sender's spinning
// takes a processor only while the program leaves it idle, as a sender on
// another host would.
func lowerPriority() error {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if err := syscall.Setpriority(syscall.PRIO_PROCESS, tid, 19); err != nil {
			return fmt.Errorf("lower the sender's priority: %w", err)
		}
	}
	return nil
}

// sendFrames writes each frame at its due time over one connection to
// addr and returns how late it wrote each, in milliseconds. It waits for a
// due time by spinning: the process has nothing else to run.
func sendFrames(addr string, frames [][]byte, start time.Time) ([]float64, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	late := make([]float64, 0, len(frames))
	for k, frame := range frames {
		due := start.Add(time.Duration(k) * soakInterval)
		for time.Now().Before(due) {
		}
		late = append(late, ms(time.Since(due)))
		if _, err := conn.Write(frame); err != nil {
			return nil, fmt.Errorf("write frame %d: %w", k, err)
		}
	}
	return late, conn.(*net.TCPConn).CloseWrite()
}

// sender is the parent's handle on the sender process.
type sender struct {
	cmd *exec.Cmd
	req io.WriteCloser
	ans *bufio.Scanner
}

// startSender starts this executable as the sender for seed's frames and
// waits until it is ready.
func startSender(seed int64) (*sender, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--soak-sender", "--seed", strconv.FormatInt(seed, 10))
	cmd.Stderr = os.Stderr
	req, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	ans, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &sender{cmd: cmd, req: req, ans: bufio.NewScanner(ans)}
	s.ans.Buffer(nil, 1<<24)
	if !s.ans.Scan() || s.ans.Text() != "ready" {
		s.kill()
		return nil, errors.New("the sender process did not start")
	}
	return s, nil
}

// soak has the sender write every frame to addr, the first one due at
// start, and returns how late it wrote each, in milliseconds.
func (s *sender) soak(addr string, start time.Time) ([]float64, error) {
	if _, err := fmt.Fprintf(s.req, "%s %d\n", addr, start.UnixNano()); err != nil {
		return nil, fmt.Errorf("sender: %w", err)
	}
	if !s.ans.Scan() {
		return nil, fmt.Errorf("sender exited: %v", s.ans.Err())
	}
	var late []float64
	if err := json.Unmarshal(s.ans.Bytes(), &late); err != nil {
		return nil, fmt.Errorf("sender answer: %w", err)
	}
	return late, nil
}

// stop closes the sender's input and waits for it to exit.
func (s *sender) stop() error {
	s.req.Close()
	return s.cmd.Wait()
}

// kill ends the sender at once, on an error path.
func (s *sender) kill() {
	s.cmd.Process.Kill()
	s.cmd.Wait()
}
