package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"longtailrec/internal/server"
)

// client is one HTTP connection to the server under test: its own
// transport capped at one connection, so numClients clients are exactly
// numClients sockets.
type client struct {
	http *http.Client
	base string
	buf  bytes.Buffer // response body, reused
	// traced stamps requests with the ids the traced handler parents its
	// spans to.
	traced bool
}

func newClient(base string) *client {
	return &client{base: base, http: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// reply is what one op came back with. body aliases the client's buffer
// and is valid until its next request.
type reply struct {
	status int
	body   []byte
}

// do sends one op and reads the whole response. reqID and spanID go out
// as headers only on a traced client.
func (c *client) do(o op, reqID, spanID int) (reply, error) {
	var req *http.Request
	var err error
	if o.kind == opWrite {
		body := fmt.Sprintf(`{"user":%d,"item":%d,"score":%g}`, o.user, o.item, o.score)
		req, err = http.NewRequest(http.MethodPost, c.base+"/v1/ratings", strings.NewReader(body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	} else {
		req, err = http.NewRequest(http.MethodGet,
			c.base+"/v1/recommend?user="+strconv.Itoa(o.user)+"&k="+strconv.Itoa(recommendK), nil)
	}
	if err != nil {
		return reply{}, err
	}
	if c.traced {
		req.Header.Set(headerRequestID, strconv.Itoa(reqID))
		req.Header.Set(headerSpanID, strconv.Itoa(spanID))
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return reply{}, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, body: c.buf.Bytes()}, nil
}

// get fetches a path and discards the body, for the health probe.
func (c *client) get(path string) error {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return nil
}

// plausible is the in-phase check, cheap enough for a 30k req/s loop: a
// 2xx whose body is a recommendation list with at least one item, or a
// rating acknowledgement. Full decoding and the oracle run after the
// phase.
func plausible(o op, r reply) bool {
	if r.status < 200 || r.status > 299 {
		return false
	}
	if o.kind == opWrite {
		return bytes.Contains(r.body, []byte(`"epoch":`))
	}
	return bytes.Contains(r.body, []byte(`"items":[{"item":`))
}

func decodeRecommend(body []byte) (server.RecommendResponse, error) {
	var out server.RecommendResponse
	err := json.Unmarshal(body, &out)
	return out, err
}

// sample is one completed op of a phase. Times are nanoseconds since the
// phase started.
type sample struct {
	kind    opKind
	ok      bool
	start   int64 // due time (open loop) or send time (closed loop)
	late    int64 // open loop: how long after its due time the op was sent
	latency int64
}

// ack is the last score a client got acknowledged for a (user, item).
type ackKey struct{ user, item int }

// phaseResult is everything a measured phase observed.
type phaseResult struct {
	samples  []sample
	duration time.Duration
	acks     map[ackKey]float64
	// checkpoint is how long the half-time SnapshotRefresh took (WAL
	// workloads only).
	checkpoint time.Duration
}

// runClosed drives one closed-loop client per stream until the deadline:
// the next op goes out when the previous reply is in. Latency runs from
// send.
func runClosed(clients []*client, streams []*stream, d time.Duration, halfTime func()) *phaseResult {
	res := &phaseResult{acks: make(map[ackKey]float64)}
	perClient := make([][]sample, len(clients))
	perAcks := make([]map[ackKey]float64, len(clients))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	stopHalf := make(chan struct{})
	var halfWG sync.WaitGroup
	if halfTime != nil {
		halfWG.Add(1)
		go func() {
			defer halfWG.Done()
			select {
			case <-time.After(d / 2):
				t := time.Now()
				halfTime()
				res.checkpoint = time.Since(t)
			case <-stopHalf:
			}
		}()
	}
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, s := clients[i], streams[i]
			acks := make(map[ackKey]float64)
			var out []sample
			for {
				t := time.Now()
				if !t.Before(deadline) {
					break
				}
				o := s.next()
				r, err := c.do(o, 0, 0)
				lat := time.Since(t)
				if err != nil {
					fmt.Fprintf(logw, "  client %d transport error: %v\n", i, err)
				}
				ok := err == nil && plausible(o, r)
				if ok && o.kind == opWrite {
					acks[ackKey{o.user, o.item}] = o.score
				}
				out = append(out, sample{kind: o.kind, ok: ok, start: int64(t.Sub(start)), latency: int64(lat)})
			}
			perClient[i], perAcks[i] = out, acks
		}(i)
	}
	wg.Wait()
	res.duration = d
	close(stopHalf)
	halfWG.Wait()
	for i := range clients {
		res.samples = append(res.samples, perClient[i]...)
		for k, v := range perAcks[i] {
			res.acks[k] = v // streams never share a (user, item)
		}
	}
	return res
}

// runOpen sends ops[i] at start + i/rate whatever the server is doing,
// over the given connections: a worker takes the next op, sleeps to 2 ms
// before its due time (timer wake-ups overshoot by about a millisecond
// here) and yield-spins the rest. Latency runs from the DUE time, so a
// stall is charged to every request that had to wait behind it.
func runOpen(clients []*client, ops []op, rate float64, d time.Duration) *phaseResult {
	res := &phaseResult{samples: make([]sample, len(ops)), duration: d, acks: map[ackKey]float64{}}
	interval := time.Duration(float64(time.Second) / rate)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now().Add(5 * time.Millisecond)
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if wait := time.Until(due) - 2*time.Millisecond; wait > 0 {
					time.Sleep(wait)
				}
				for time.Now().Before(due) {
					runtime.Gosched()
				}
				sent := time.Now()
				r, err := c.do(ops[i], 0, 0)
				done := time.Now()
				if err != nil {
					fmt.Fprintf(logw, "  open-loop transport error: %v\n", err)
				}
				res.samples[i] = sample{
					kind:    ops[i].kind,
					ok:      err == nil && plausible(ops[i], r),
					start:   int64(due.Sub(start)),
					late:    int64(sent.Sub(due)),
					latency: int64(done.Sub(due)),
				}
			}
		}(c)
	}
	wg.Wait()
	return res
}
