package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/torctl"
)

// relay is the benchmark's stand-in for one PrivCount-patched Tor
// relay's control port: it answers the controller handshake (NULL
// auth), then replays a pre-rendered trace as fast as the controller
// drains it — a closed loop — and ends it with the PRIVCOUNT_DONE
// marker. Rendering happens before any clock starts, so only the
// controller side (torctl parsing and the DC's dispatch) is timed.
type relay struct {
	ln     net.Listener
	trace  []byte // rendered 650 lines
	lines  int    // event lines in trace
	repeat int    // replays of trace per connection

	wg sync.WaitGroup
	mu sync.Mutex
	// firstLine is when the latest connection started writing events.
	firstLine time.Time
	serveErr  error
}

func newRelay(trace []byte, lines, repeat int) (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &relay{ln: ln, trace: trace, lines: lines, repeat: repeat}
	r.wg.Add(1)
	go r.acceptLoop()
	return r, nil
}

func (r *relay) addr() string { return r.ln.Addr().String() }

func (r *relay) acceptLoop() {
	defer r.wg.Done()
	for {
		c, err := r.ln.Accept()
		if err != nil {
			return
		}
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			defer c.Close()
			if err := r.serve(c); err != nil {
				r.mu.Lock()
				r.serveErr = err
				r.mu.Unlock()
			}
		}()
	}
}

// serve runs one controller connection.
func (r *relay) serve(c net.Conn) error {
	br := bufio.NewReader(c)
	reply := func(lines ...string) error {
		_, err := io.WriteString(c, strings.Join(lines, "\r\n")+"\r\n")
		return err
	}
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return fmt.Errorf("relay: controller left during handshake: %w", err)
		}
		cmd, _, _ := strings.Cut(strings.TrimSpace(line), " ")
		switch strings.ToUpper(cmd) {
		case "PROTOCOLINFO":
			err = reply("250-PROTOCOLINFO 1", "250-AUTH METHODS=NULL", `250-VERSION Tor="0.3.3.7-privcount"`, "250 OK")
		case "AUTHENTICATE":
			err = reply("250 OK")
		case "SETEVENTS":
			if err := reply("250 OK"); err != nil {
				return err
			}
			return r.stream(c, br)
		default:
			err = reply("510 Unrecognized command")
		}
		if err != nil {
			return err
		}
	}
}

// stream writes the trace repeat times and the end marker, then waits
// for the controller to hang up.
func (r *relay) stream(c net.Conn, br *bufio.Reader) error {
	r.mu.Lock()
	r.firstLine = time.Now()
	r.mu.Unlock()
	for i := 0; i < r.repeat; i++ {
		if _, err := c.Write(r.trace); err != nil {
			return fmt.Errorf("relay: write trace: %w", err)
		}
	}
	done := fmt.Sprintf("650 %s Processed=%d\r\n", torctl.EventDone, r.lines*r.repeat)
	if _, err := io.WriteString(c, done); err != nil {
		return fmt.Errorf("relay: write end marker: %w", err)
	}
	_, _ = io.Copy(io.Discard, br) // until the controller closes
	return nil
}

// started returns when the latest connection began streaming events.
func (r *relay) started() time.Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.firstLine
}

// close stops the relay and waits for its goroutines; it returns the
// last connection error, if any.
func (r *relay) close() error {
	r.ln.Close()
	r.wg.Wait()
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.serveErr
}
