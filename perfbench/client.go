package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"orderopt/internal/exec"
	"orderopt/internal/server"
)

// client is the benchmark's one closed-loop client: one keep-alive
// loopback connection, each request sent only after the previous reply
// has been read to the end.
type client struct {
	base  string
	hc    *http.Client
	tr    *http.Transport
	dials atomic.Int64
	body  bytes.Buffer
	chunk []byte
}

func newClient(addr string) *client {
	c := &client{base: "http://" + addr, chunk: make([]byte, 64<<10)}
	d := &net.Dialer{}
	c.tr = &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			conn, err := d.DialContext(ctx, network, addr)
			if err == nil {
				c.dials.Add(1)
			}
			return conn, err
		},
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}
	c.hc = &http.Client{Transport: c.tr}
	return c
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// reply is one answered request: its latency, its time to first row
// and the status and body, kept for the correctness check.
type reply struct {
	latency, ttfr time.Duration
	status        int
	body          []byte
}

// do sends one request and reads the reply to its end. The clock runs
// from just before the request is written to the last byte read.
// For a streamed reply the time to first row is taken when the first
// rows frame (the second NDJSON line) has fully arrived; for a
// buffered one the rows can be used only once the whole body is in, so
// it equals the latency. The body is checked after the clock stops;
// r.body aliases the client's buffer until the next call.
func (c *client) do(path string, payload []byte, stream bool) (reply, error) {
	var r reply
	begin := time.Now()
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(payload))
	if err != nil {
		return r, err
	}
	defer resp.Body.Close()
	c.body.Reset()
	lines := 0
	for {
		n, err := resp.Body.Read(c.chunk)
		if n > 0 {
			if stream && lines < 2 {
				lines += bytes.Count(c.chunk[:n], []byte{'\n'})
				if lines >= 2 {
					r.ttfr = time.Since(begin)
				}
			}
			c.body.Write(c.chunk[:n])
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return r, fmt.Errorf("reading reply: %w", err)
		}
	}
	r.latency = time.Since(begin)
	if !stream || r.ttfr == 0 {
		r.ttfr = r.latency
	}
	r.status = resp.StatusCode
	r.body = c.body.Bytes()
	return r, nil
}

func (c *client) getJSON(path string, v any) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// request is one statement ready to send: its encoded body and what a
// correct reply looks like.
type request struct {
	st      statement
	payload []byte
	ref     *reference // nil for /plan
}

func makeRequest(w *workload, st statement, refs map[string]*reference) (request, error) {
	var v any = server.PlanRequest{SQL: st.SQL}
	if w.Path == "/execute" {
		v = server.ExecuteRequest{SQL: st.SQL, Dataset: w.Dataset, Stream: w.Stream}
	}
	payload, err := json.Marshal(v)
	if err != nil {
		return request{}, err
	}
	rq := request{st: st, payload: payload, ref: refs[st.SQL]}
	if w.Path == "/execute" && rq.ref == nil {
		return request{}, fmt.Errorf("no reference for %s", st.Class)
	}
	return rq, nil
}

// check is the correctness gate: a reply that fails it counts as a
// failed request, however fast it was.
func (w *workload) check(rq request, r reply) error {
	if r.status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %.200s", rq.st.Class, r.status, r.body)
	}
	switch {
	case w.Path == "/plan":
		var p struct {
			Source string          `json:"source"`
			Plan   json.RawMessage `json:"plan"`
		}
		if err := json.Unmarshal(r.body, &p); err != nil {
			return fmt.Errorf("plan reply: %w", err)
		}
		if len(p.Plan) == 0 || string(p.Plan) == "null" {
			return fmt.Errorf("plan reply without a plan")
		}
		if w.Cold && p.Source != "cold" {
			return fmt.Errorf("plan source %q, want cold", p.Source)
		}
		return nil
	case w.Stream:
		return checkStream(rq, r.body)
	}
	var e struct {
		RowCount int64     `json:"rowCount"`
		Columns  []string  `json:"columns"`
		Rows     [][]int64 `json:"rows"`
	}
	if err := json.Unmarshal(r.body, &e); err != nil {
		return fmt.Errorf("%s: execute reply: %w", rq.st.Class, err)
	}
	if e.RowCount != rq.ref.RowCount {
		return fmt.Errorf("%s: rowCount %d, reference %d", rq.st.Class, e.RowCount, rq.ref.RowCount)
	}
	keys, err := positions(e.Columns, rq.ref.OrderBy)
	if err != nil {
		return fmt.Errorf("%s: %w", rq.st.Class, err)
	}
	for i := 1; i < len(e.Rows); i++ {
		if less(e.Rows[i], e.Rows[i-1], keys) {
			return fmt.Errorf("%s: row %d out of ORDER BY order", rq.st.Class, i)
		}
	}
	return nil
}

// positions maps column names to their positions in cols.
func positions(cols, names []string) ([]int, error) {
	out := make([]int, len(names))
	for i, n := range names {
		out[i] = -1
		for j, c := range cols {
			if c == n {
				out[i] = j
				break
			}
		}
		if out[i] < 0 {
			return nil, fmt.Errorf("column %s missing from result columns %v", n, cols)
		}
	}
	return out, nil
}

func less(a, b []int64, keys []int) bool {
	for _, k := range keys {
		if a[k] != b[k] {
			return a[k] < b[k]
		}
	}
	return false
}

// checkStream checks a streamed reply: a header frame, rows frames in
// ORDER BY order, and a clean trailer whose row count, like the rows
// received, matches the reference — as does the multiset checksum of
// the rows, taken in the reference's column order.
func checkStream(rq request, body []byte) error {
	class, ref := rq.st.Class, rq.ref
	lines := bytes.Split(bytes.TrimSuffix(body, []byte{'\n'}), []byte{'\n'})
	if len(lines) < 2 {
		return fmt.Errorf("%s: %d frames, want a header and a trailer at least", class, len(lines))
	}
	var h server.StreamHeader
	if err := json.Unmarshal(lines[0], &h); err != nil || h.Frame != server.FrameHeader {
		return fmt.Errorf("%s: bad header frame %.200s", class, lines[0])
	}
	keys, err := positions(h.Columns, ref.OrderBy)
	if err != nil {
		return fmt.Errorf("%s: %w", class, err)
	}
	perm, err := positions(h.Columns, ref.Columns)
	if err != nil {
		return fmt.Errorf("%s: %w", class, err)
	}
	var (
		rows     int64
		sum      int64
		prev     []int64
		inRef    = make(exec.Row, len(perm))
		one      = []exec.Row{inRef}
		orderErr error
	)
	emit := func(row []int64) error {
		if len(row) != len(h.Columns) {
			return fmt.Errorf("row of %d values, %d columns", len(row), len(h.Columns))
		}
		if prev != nil && orderErr == nil && less(row, prev, keys) {
			orderErr = fmt.Errorf("%s: row %d out of ORDER BY order", class, rows)
		}
		prev = append(prev[:0], row...)
		for i, p := range perm {
			inRef[i] = row[p]
		}
		sum += exec.ChecksumRows(one)
		rows++
		return nil
	}
	for _, line := range lines[1 : len(lines)-1] {
		if err := parseRowsFrame(line, emit); err != nil {
			return fmt.Errorf("%s: rows frame: %w", class, err)
		}
	}
	last := lines[len(lines)-1]
	var t server.StreamTrailer
	if err := json.Unmarshal(last, &t); err != nil || t.Frame != server.FrameTrailer {
		return fmt.Errorf("%s: bad trailer frame %.200s", class, last)
	}
	switch {
	case t.Error != "":
		return fmt.Errorf("%s: stream failed: %s", class, t.Error)
	case orderErr != nil:
		return orderErr
	case t.RowCount != ref.RowCount || rows != ref.RowCount:
		return fmt.Errorf("%s: %d rows streamed, trailer %d, reference %d", class, rows, t.RowCount, ref.RowCount)
	case sum != ref.Checksum:
		return fmt.Errorf("%s: multiset checksum %d, reference %d", class, sum, ref.Checksum)
	}
	return nil
}

// parseRowsFrame calls emit for every row of one
// {"frame":"rows","rows":[[...],...]} line. It reads integers only,
// which is all the result rows hold, without going through reflection:
// a streamed reply carries tens of thousands of rows.
func parseRowsFrame(line []byte, emit func([]int64) error) error {
	const prefix = `{"frame":"rows","rows":[`
	if !bytes.HasPrefix(line, []byte(prefix)) {
		return fmt.Errorf("not a rows frame: %.80s", line)
	}
	row := make([]int64, 0, 16)
	i := len(prefix)
	for i < len(line) && line[i] == '[' {
		i++
		row = row[:0]
		for i < len(line) && line[i] != ']' {
			neg := false
			if line[i] == '-' {
				neg = true
				i++
			}
			start := i
			var v int64
			for i < len(line) && line[i] >= '0' && line[i] <= '9' {
				v = v*10 + int64(line[i]-'0')
				i++
			}
			if i == start {
				return fmt.Errorf("malformed value at byte %d", i)
			}
			if neg {
				v = -v
			}
			row = append(row, v)
			if i < len(line) && line[i] == ',' {
				i++
			}
		}
		if i >= len(line) {
			return fmt.Errorf("truncated row")
		}
		i++ // ']'
		if err := emit(row); err != nil {
			return err
		}
		if i < len(line) && line[i] == ',' {
			i++
		}
	}
	if string(line[i:]) != "]}" {
		return fmt.Errorf("malformed frame end %.40q", line[i:])
	}
	return nil
}
