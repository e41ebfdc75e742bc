package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"prionn/internal/trace"
)

// predictBody is prionnd's /predict wire format.
type predictBody struct {
	Script       string `json:"script"`
	InputDeck    string `json:"input_deck,omitempty"`
	RequestedMin int    `json:"requested_min,omitempty"`
}

// reply is prionnd's /predict answer.
type reply struct {
	RuntimeMin int     `json:"runtime_min"`
	ReadBytes  float64 `json:"read_bytes"`
	WriteBytes float64 `json:"write_bytes"`
	ReadBW     float64 `json:"read_bw"`
	WriteBW    float64 `json:"write_bw"`
	PowerW     float64 `json:"power_w"`
	FromModel  bool    `json:"from_model"`
	Degraded   bool    `json:"degraded"`
	Cached     bool    `json:"cached"`
}

func predictJSON(j trace.Job) []byte {
	b, _ := json.Marshal(predictBody{Script: j.Script, InputDeck: j.InputDeck, RequestedMin: j.RequestedMin})
	return b
}

// client is a keep-alive HTTP client limited to conns connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(addr string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{base: "http://" + addr, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends body and decodes a 200 answer into out.
func (c *client) post(path string, body []byte, out any) (int, error) {
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer func() { _ = resp.Body.Close() }()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("decoding %s reply: %w", path, err)
		}
	}
	return resp.StatusCode, nil
}

// predict posts the item's body to /predict and decodes the answer;
// it is the caller of every phase against the daemon.
func (c *client) predict(it item) (int, reply, error) {
	var r reply
	status, err := c.post("/predict", it.body, &r)
	return status, r, err
}

// healthz is a GET /healthz round trip: the HTTP exchange with a
// handler that does no work.
func (c *client) healthz(item) (int, reply, error) {
	resp, err := c.hc.Get(c.base + "/healthz")
	if err != nil {
		return 0, reply{}, err
	}
	defer func() { _ = resp.Body.Close() }()
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, reply{}, err
}

// sample is one /predict request as the generator saw it. Times are
// offsets from the phase start.
type sample struct {
	job    trace.Job
	due    time.Duration // when it was scheduled to be sent
	send   time.Duration // when it was sent
	done   time.Duration // when its reply was decoded
	late   time.Duration // send minus max(due, when a connection was free)
	traced bool          // its spans were recorded
	status int
	err    error
	reply  reply
}

// latency is the client-visible latency: from when the request was due,
// so a stall also counts against the requests queued behind it. The
// generator's own lateness, its timer waking after the due time with a
// connection free, is not the server's doing: it is reported apart and
// left out.
func (s *sample) latency() time.Duration { return s.done - s.due - s.late }

// ok reports whether the request got a model answer; its value is
// checked against the reference separately.
func (s *sample) ok() bool {
	return s.err == nil && s.status == http.StatusOK && !s.reply.Degraded && s.reply.FromModel
}

// item is one scheduled request of a phase, its body encoded ahead of
// time so that encoding is not timed.
type item struct {
	job  trace.Job
	body []byte
	due  time.Duration
}

// caller sends one request, over HTTP or to an in-process serving
// layer, and returns its status and answer.
type caller func(it item) (int, reply, error)

// openLoop sends items on their schedule through call with conns
// workers, one per connection. Each worker takes the next item in
// order, waits for its due time if it is early, and sends it; when
// every worker is busy the item waits, and that wait counts in its
// latency. Items all due at zero go back to back, as a closed loop.
// done, when set, is called with the phase start, the item's index and
// its sample as each request completes, so spans are recorded while
// the phase runs. It returns the samples in schedule order.
func openLoop(items []item, conns int, call caller, done func(start time.Time, i int, s *sample)) []sample {
	start := time.Now()
	out := make([]sample, len(items))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(items) {
					return
				}
				it := items[i]
				free := time.Since(start)
				sleepUntil(start, it.due)
				s := sample{job: it.job, due: it.due, send: time.Since(start)}
				//prionnvet:ignore time-dep -- timing is what the benchmark measures
				s.late = s.send - max(it.due, free)
				s.status, s.reply, s.err = call(it)
				//prionnvet:ignore time-dep -- timing is what the benchmark measures
				s.done = time.Since(start)
				if done != nil {
					done(start, i, &s)
				}
				out[i] = s
			}
		}()
	}
	wg.Wait()
	return out
}

// predictItems schedules a /predict for each job, due at due[i], or
// all at once when due is nil.
func predictItems(jobs []trace.Job, due []time.Duration) []item {
	items := make([]item, len(jobs))
	for i, j := range jobs {
		items[i] = item{job: j, body: predictJSON(j)}
		if due != nil {
			items[i].due = due[i]
		}
	}
	return items
}

// sleepUntil returns once due has passed since start. It sleeps rather
// than spins: a spinning generator would take one of a small machine's
// cores from the daemon under test. The runtime's timers wake up to
// about a millisecond late, which shows as generator lateness.
func sleepUntil(start time.Time, due time.Duration) {
	time.Sleep(due - time.Since(start))
}

// closedLoop keeps conns connections busy for dur, each sending the next
// submission of the trace as soon as its previous request is answered.
// It returns the samples and the measured span.
func closedLoop(c *client, g *trace.Generator, conns int, dur time.Duration) ([]sample, time.Duration) {
	var mu sync.Mutex
	var samples []sample
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				j := g.Next()
				mu.Unlock()
				send := time.Since(start)
				if send >= dur {
					return
				}
				s := sample{job: j, due: send, send: send}
				s.status, s.reply, s.err = c.predict(item{job: j, body: predictJSON(j)})
				//prionnvet:ignore time-dep -- timing is what the benchmark measures
				s.done = time.Since(start)
				mu.Lock()
				//prionnvet:ignore time-dep -- timing is what the benchmark measures
				samples = append(samples, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	//prionnvet:ignore time-dep -- timing is what the benchmark measures
	return samples, time.Since(start)
}

// phaseReport is the generator's account of one phase.
type phaseReport struct {
	Name      string  `json:"name"`
	Loop      string  `json:"loop"` // "open" (scheduled) or "closed"
	Conns     int     `json:"conns"`
	Sent      int     `json:"sent"`
	Succeeded int     `json:"succeeded"`
	Failed    int     `json:"failed"`
	Degraded  int     `json:"degraded"`
	Fallback  int     `json:"fallback"`
	Mismatch  int     `json:"mismatch"`
	Cached    int     `json:"cached"`
	Seconds   float64 `json:"seconds"`
	// Generator lateness (send time past the later of due time and a
	// free connection) is the generator's own fault, not the server's.
	LateP50Ms float64 `json:"late_p50_ms"`
	LateP99Ms float64 `json:"late_p99_ms"`
	Valid     bool    `json:"valid"`
	Note      string  `json:"note,omitempty"`
}

// maxLateP99 is the generator lateness beyond which an open-loop phase
// is invalid: the schedule was not kept, so latencies would understate.
const maxLateP99 = 20 * time.Millisecond

// report summarizes a phase. mismatched counts model answers that
// differ from the reference.
func report(name, loop string, conns int, samples []sample, mismatched int, span time.Duration) phaseReport {
	r := phaseReport{Name: name, Loop: loop, Conns: conns, Sent: len(samples), Mismatch: mismatched, Seconds: span.Seconds(), Valid: true}
	var late []float64
	for i := range samples {
		s := &samples[i]
		late = append(late, msOf(s.late))
		switch {
		case s.err != nil || s.status != http.StatusOK:
			r.Failed++
		case s.reply.Degraded:
			r.Degraded++
			r.Failed++
		case !s.reply.FromModel:
			r.Fallback++
			r.Failed++
		default:
			r.Succeeded++
			if s.reply.Cached {
				r.Cached++
			}
		}
	}
	r.Failed += mismatched
	r.Succeeded -= mismatched
	if loop == "open" {
		r.LateP50Ms = quantile(late, 0.50)
		r.LateP99Ms = quantile(late, 0.99)
		if r.LateP99Ms > msOf(maxLateP99) {
			r.Valid = false
			r.Note = fmt.Sprintf("generator p99 lateness %.2f ms exceeds %v", r.LateP99Ms, maxLateP99)
		}
	}
	return r
}
