package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"strconv"
	"sync"
	"time"

	"dlacep/internal/core"
	"dlacep/internal/event"
	"dlacep/internal/obs"
	"dlacep/internal/pattern"
	"dlacep/internal/server"
)

// serverTarget serves the pipeline with server.Server on a loopback
// listener; each pass is one TCP connection. The benchmark writes events
// with its own writer and reads replies on its own reader goroutine:
// server.Client flushes one bufio.Writer from both Send and Recv, so it
// cannot send and receive at the same time.
type serverTarget struct {
	srv    *server.Server
	ln     net.Listener
	served chan error // Serve's return value

	// Traced servers only: the program's obs registry (cep time and
	// instances of the inner pipeline, which has no public seam) and the
	// OnEvent tap.
	reg *obs.Registry
	tap *eventTap

	// The current pass.
	conn    *net.TCPConn
	w       *bufio.Writer
	line    []byte
	open    bool
	summary chan replyStats // the reader's state when the summary arrives (or the stream ends)
	done    chan replyStats // the reader's final state, sent as it exits
	replies replyStats
}

func newServerTarget(in *inputs, lt *layerTrace) (*serverTarget, error) {
	factory := func() (core.EventFilter, error) { return in.filter(), nil }
	if lt != nil {
		factory = func() (core.EventFilter, error) { return lt.wrap(in.filter()), nil }
	}
	srv, err := server.New(in.schema, []*pattern.Pattern{in.pat}, in.cfg, factory)
	if err != nil {
		return nil, err
	}
	srv.Log = log.New(os.Stderr, "", 0).Printf
	t := &serverTarget{srv: srv, served: make(chan error, 1)}
	if lt != nil {
		t.reg = obs.NewRegistry()
		t.tap = &eventTap{}
		srv.Obs = t.reg
		srv.OnEvent = t.tap.observe
	}
	if t.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	//dlacep:ignore rawgoroutine joined by close, which receives Serve's return value from t.served
	go func() { t.served <- srv.Serve(t.ln) }()
	return t, nil
}

func (t *serverTarget) begin(sk *sink, open bool) error {
	c, err := net.Dial("tcp", t.ln.Addr().String())
	if err != nil {
		return err
	}
	t.conn = c.(*net.TCPConn)
	t.w = bufio.NewWriterSize(t.conn, 64<<10)
	t.open = open
	t.summary = make(chan replyStats, 1)
	t.done = make(chan replyStats, 1)
	//dlacep:ignore rawgoroutine joined by release, which receives the reader's final state from t.done
	go readReplies(t.conn, sk, t.summary, t.done)
	return nil
}

// offer writes one event line. The open-loop pass flushes every line so the
// event leaves at its due time; the closed-loop pass lets the writer fill.
func (t *serverTarget) offer(ev *event.Event) error {
	t.line = append(t.line[:0], ev.Type...)
	t.line = append(t.line, ',')
	t.line = strconv.AppendInt(t.line, ev.Ts, 10)
	for _, a := range ev.Attrs {
		t.line = append(t.line, ',')
		t.line = strconv.AppendFloat(t.line, a, 'g', -1, 64)
	}
	t.line = append(t.line, '\n')
	if _, err := t.w.Write(t.line); err != nil {
		return err
	}
	if t.open {
		return t.w.Flush()
	}
	return nil
}

// end asks for the end-of-stream flush and waits for the summary, which
// the server writes after every match.
func (t *serverTarget) end() (passStats, error) {
	t0 := time.Now()
	if _, err := t.w.WriteString("FLUSH\n"); err != nil {
		return passStats{}, err
	}
	if err := t.w.Flush(); err != nil {
		return passStats{}, err
	}
	r := <-t.summary
	endNS := int64(time.Since(t0))
	t.replies = r
	if err := r.failure(); err != nil {
		return passStats{}, err
	}
	st := passStats{relayed: r.summary.Relayed, instances: -1, endNS: endNS}
	if t.reg != nil {
		st.instances = int64(t.reg.Gauge("cep.pattern.0.instances").Value())
	}
	return st, nil
}

// release half-closes the connection, which ends the server's handler and
// with it the pass's pipeline, and joins the reader.
func (t *serverTarget) release() error {
	err := t.conn.CloseWrite()
	r := <-t.done
	t.replies = r
	t.conn.Close()
	if err != nil {
		return err
	}
	return r.failure()
}

func (t *serverTarget) close() error {
	if err := t.srv.Close(); err != nil {
		return fmt.Errorf("closing the server: %w", err)
	}
	if err := <-t.served; !errors.Is(err, net.ErrClosed) {
		return fmt.Errorf("server: %w", err)
	}
	return nil
}

// summaryLine is the server's end-of-stream reply.
type summaryLine struct {
	Events  int `json:"events"`
	Relayed int `json:"relayed"`
	Matches int `json:"matches"`
}

// replyStats is what the reader saw on one connection.
type replyStats struct {
	summary    *summaryLine
	errLines   []string // error replies from the server
	matchBytes int64    // bytes of match lines, newlines included
	err        error    // read or parse failure
}

func (r replyStats) failure() error {
	switch {
	case r.err != nil:
		return r.err
	case len(r.errLines) > 0:
		return fmt.Errorf("server replied %s", r.errLines[0])
	case r.summary == nil:
		return fmt.Errorf("connection ended without a summary")
	}
	return nil
}

var (
	matchPrefix   = []byte(`{"match":`)
	summaryPrefix = []byte(`{"summary":`)
	idsField      = []byte(`"ids":[`)
)

// readReplies reads one connection's replies until EOF, recording each
// match in sk as it arrives. It sends its state on summary once (when the
// summary arrives, or at the end of the stream if none did) and on done as
// it exits; both channels have room for that one value.
func readReplies(r io.Reader, sk *sink, summary, done chan<- replyStats) {
	br := bufio.NewReaderSize(r, 64<<10)
	var st replyStats
	sent := false
	var ids []uint64
	for st.err == nil {
		line, err := br.ReadSlice('\n')
		if errors.Is(err, io.EOF) && len(line) == 0 {
			break
		}
		if err != nil {
			st.err = fmt.Errorf("reading replies: %w", err)
			break
		}
		at := time.Now()
		switch {
		case bytes.HasPrefix(line, matchPrefix):
			if ids, err = parseIDs(line, ids[:0]); err != nil {
				st.err = err
				break
			}
			sk.add(ids, at)
			st.matchBytes += int64(len(line))
		case bytes.HasPrefix(line, summaryPrefix):
			var msg struct{ Summary summaryLine }
			if err := json.Unmarshal(line, &msg); err != nil {
				st.err = fmt.Errorf("parsing summary %q: %w", line, err)
				break
			}
			st.summary = &msg.Summary
			if !sent {
				summary <- st
				sent = true
			}
		default:
			st.errLines = append(st.errLines, string(bytes.TrimSpace(line)))
		}
	}
	if !sent {
		summary <- st
	}
	done <- st
}

// parseIDs reads the ascending event IDs of one match line,
// {"match":{"ids":[3,7,9],...}}, into ids.
func parseIDs(line []byte, ids []uint64) ([]uint64, error) {
	i := bytes.Index(line, idsField)
	if i < 0 {
		return ids, fmt.Errorf("match line without ids: %q", line)
	}
	rest := line[i+len(idsField):]
	end := bytes.IndexByte(rest, ']')
	if end < 0 {
		return ids, fmt.Errorf("unterminated ids in %q", line)
	}
	var id uint64
	digits := 0
	for _, c := range rest[:end+1] {
		switch {
		case c >= '0' && c <= '9':
			id = id*10 + uint64(c-'0')
			digits++
		case (c == ',' || c == ']') && digits > 0:
			ids = append(ids, id)
			id, digits = 0, 0
		default:
			return ids, fmt.Errorf("bad ids in %q", line)
		}
	}
	if len(ids) == 0 {
		return ids, fmt.Errorf("match line with no ids: %q", line)
	}
	return ids, nil
}

// eventTap is the server's OnEvent hook: it notes when the first and the
// last event reached the handler, so the time the handler spent per event
// can be read from outside.
type eventTap struct {
	mu          sync.Mutex
	first, last time.Time
	n           int64
}

func (e *eventTap) observe(event.Event) {
	now := time.Now()
	e.mu.Lock()
	if e.n == 0 {
		e.first = now
	}
	e.last = now
	e.n++
	e.mu.Unlock()
}

// span returns the time from the first to the last observed event and the
// number of intervals it covers.
func (e *eventTap) span() (time.Duration, int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.n < 2 {
		return 0, 0
	}
	return e.last.Sub(e.first), e.n - 1
}
