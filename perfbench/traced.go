package main

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"prionn/internal/cluster"
	"prionn/internal/prionn"
	"prionn/internal/serve"
	"prionn/internal/trace"
)

// span is one timed call: name, start and end (nanoseconds from the
// tracer's origin), the index of the span that caused it (-1 for a
// root) and the request it belongs to (-1 for none).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // filled by selfTimes
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) add(name string, start, end time.Time, parent, req int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin)), Parent: parent, Req: req})
	return len(t.spans) - 1
}

// end sets span i's end time, for a root opened before its children.
func (t *tracer) end(i int, at time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = int64(at.Sub(t.origin))
}

// request records one HTTP request's spans: the request from its due
// time to its decoded reply, split into the client wait from due time
// to send and the HTTP exchange. The client wait's child is the
// generator's own lateness (from ready, when the request was due and a
// connection free, to send), so the wait's self time is the time the
// request queued for a connection.
func (t *tracer) request(phaseStart time.Time, req int, s *sample) {
	at := func(d time.Duration) time.Time { return phaseStart.Add(d) }
	root := t.add("prionnd.request", at(s.due), at(s.done), -1, req)
	wait := t.add("prionnd.client_wait", at(s.due), at(s.send), root, req)
	t.add("gen.late", at(s.send-s.late), at(s.send), wait, req)
	t.add("prionnd.http", at(s.send), at(s.done), root, req)
}

// spanAs is an openLoop hook that records each request as a root span
// named name.
func (t *tracer) spanAs(name string) func(time.Time, int, *sample) {
	return func(start time.Time, i int, s *sample) {
		t.add(name, start.Add(s.send), start.Add(s.done), -1, i)
	}
}

// selfTimes fills every span's self time, its duration minus the part
// of it that its child spans cover, and returns the self times per span
// name.
func (t *tracer) selfTimes() map[string][]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[string][]time.Duration{}
	for i := range t.spans {
		s := &t.spans[i]
		type iv struct{ lo, hi int64 }
		var ivs []iv
		for _, c := range children[i] {
			lo, hi := max(t.spans[c].Start, s.Start), min(t.spans[c].End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered, reach := int64(0), s.Start
		for _, v := range ivs {
			lo := max(v.lo, reach)
			if v.hi > lo {
				covered += v.hi - lo
				reach = v.hi
			}
		}
		s.Self = s.End - s.Start - covered
		out[s.Name] = append(out[s.Name], time.Duration(s.Self))
	}
	return out
}

func quantileDur(ds []time.Duration, q float64) time.Duration {
	vals := make([]float64, len(ds))
	for i, d := range ds {
		vals[i] = float64(d)
	}
	if len(vals) == 0 {
		return 0
	}
	return time.Duration(quantile(vals, q))
}

func request(j trace.Job) serve.Request {
	return serve.Request{Script: j.Script, InputDeck: j.InputDeck, RequestedMin: j.RequestedMin}
}

func replyOf(p prionn.Prediction, fromModel, degraded, cached bool) reply {
	return reply{
		RuntimeMin: p.RuntimeMin, ReadBytes: p.ReadBytes, WriteBytes: p.WriteBytes,
		ReadBW: p.ReadBW(), WriteBW: p.WriteBW(), PowerW: p.PowerW,
		FromModel: fromModel, Degraded: degraded, Cached: cached,
	}
}

// clusterConfig mirrors the cluster prionnd builds from the workload's
// flags (affinity policy, default cache, 5s request deadline); on
// submit-f32, whose daemon runs no cluster, it has one replica.
func (e *env) clusterConfig() cluster.Config {
	return cluster.Config{
		Replicas:       e.w.replicas,
		Policy:         cluster.ScriptAffinity,
		RequestTimeout: 5 * time.Second,
		CacheSize:      daemonCache,
		Seed:           e.o.seed,
	}
}

// Probes of the HTTP exchange alone: healthzProbes round trips to
// /healthz, due healthzGap apart so that the daemon is about as lightly
// loaded as during the replay.
const (
	healthzProbes = 400
	healthzGap    = 2 * time.Millisecond
)

// traced is the per-layer run. It replays the whole schedule against a
// fresh daemon, recording client spans for every other request, so the
// traced and untraced halves ran side by side and their difference is
// the tracing overhead, and times /healthz round trips on the same
// connections; then replays the first half of the schedule in process
// through the serving layers, times each lower layer through its public
// functions, and measures the online-learning stages.
func (e *env) traced() error {
	tr := newTracer()
	d, err := e.launch()
	if err != nil {
		return err
	}
	stopped := false
	defer func() {
		if !stopped {
			d.kill()
		}
	}()
	c := newClient(d.addr, e.conns)
	warm := e.warmUp(c.predict)
	live, liveSpan := e.replay(c, func(start time.Time, i int, s *sample) {
		if i%2 == 0 {
			tr.request(start, i, s)
			s.traced = true
		}
	})
	probes := make([]item, healthzProbes)
	for i := range probes {
		probes[i].due = time.Duration(i) * healthzGap
	}
	hz := openLoop(probes, e.conns, c.healthz, tr.spanAs("prionnd.healthz"))
	c.close()
	stopped = true
	if err := d.stopWithin(90 * time.Second); err != nil {
		return err
	}
	for _, s := range hz {
		if s.err != nil || s.status != http.StatusOK {
			return fmt.Errorf("/healthz answered %d, %v", s.status, s.err)
		}
	}
	ref, p, err := e.references()
	if err != nil {
		return err
	}
	res := result{Correct: true, Metrics: map[string]metric{}}
	m := res.Metrics
	e.checkPhase(&res, ref, "warm-up", "closed", e.conns, warm, 0)
	e.checkPhase(&res, ref, "replay", "open", e.conns, live, liveSpan)

	// Client side of prionnd, from the traced half's spans.
	durs := tr.selfTimes()
	queued, req := durs["prionnd.client_wait"], durs["prionnd.http"]
	var all, traced, untraced, wait, late []float64
	for i := range live {
		s := &live[i]
		l := msOf(s.latency())
		all = append(all, l)
		if s.traced {
			traced = append(traced, l)
			wait = append(wait, msOf(s.send-s.due))
			late = append(late, msOf(s.late))
		} else {
			untraced = append(untraced, l)
		}
	}
	untracedP50, tracedP50 := quantile(untraced, 0.5), quantile(traced, 0.5)
	m["prionnd.client_wait_ms.p50"] = metric{quantile(wait, 0.5), "ms"}
	m["prionnd.client_wait_ms.p99"] = metric{quantile(wait, 0.99), "ms"}
	m["prionnd.request_ms.p50"] = metric{msOf(quantileDur(req, 0.5)), "ms"}
	m["prionnd.request_ms.p99"] = metric{msOf(quantileDur(req, 0.99)), "ms"}
	m["prionnd.http_self_ms.p50"] = metric{msOf(quantileDur(durs["prionnd.healthz"], 0.5)), "ms"}
	m["prionnd.predict_p50_ms"] = metric{quantile(all, 0.50), "ms"}
	m["prionnd.predict_p90_ms"] = metric{quantile(all, 0.90), "ms"}
	m["prionnd.predict_p99_ms"] = metric{quantile(all, 0.99), "ms"}
	m["gen.late_ms.p99"] = metric{quantile(late, 0.99), "ms"}
	m["trace.overhead_ms"] = metric{tracedP50 - untracedP50, "ms"}
	e.logf("open-loop latency over %d samples (%d beyond p99): p90 %.3f ms, p99 %.3f ms",
		len(all), len(all)/100, m["prionnd.predict_p90_ms"].Value, m["prionnd.predict_p99_ms"].Value)

	// The serving layers in process, over the first half of the same
	// schedule: enough samples for their medians and p99s, and it keeps
	// the traced run well within its time limit.
	items := predictItems(e.in.replay, e.in.due)
	items = items[:len(items)/2]
	ctx := context.Background()
	view, err := ref.view.Clone()
	if err != nil {
		return err
	}
	srv := serve.New(view, serve.Config{})
	serveCall := func(it item) (int, reply, error) {
		resp, err := srv.Predict(ctx, request(it.job))
		return http.StatusOK, replyOf(resp.Pred, resp.FromModel, false, false), err
	}
	e.warmUp(serveCall)
	st0 := srv.Stats()
	ss := openLoop(items, e.conns, serveCall, tr.spanAs("serve.predict"))
	st := srv.Stats()
	st.Batches -= st0.Batches
	st.MapNs -= st0.MapNs
	st.ForwardNs -= st0.ForwardNs
	st.Served -= st0.Served
	st.Rejected -= st0.Rejected
	if err := srv.Stop(ctx); err != nil {
		return err
	}
	e.checkPhase(&res, ref, "serve-inproc", "open", e.conns, ss, 0)
	durs = tr.selfTimes()
	serveP50 := quantileDur(durs["serve.predict"], 0.5)
	var mapAvg, fwdAvg time.Duration
	if st.Batches > 0 {
		mapAvg = time.Duration(st.MapNs / st.Batches)
		fwdAvg = time.Duration(st.ForwardNs / st.Batches)
	}
	m["serve.predict_us.p50"] = metric{usOf(serveP50), "us"}
	m["serve.predict_us.p99"] = metric{usOf(quantileDur(durs["serve.predict"], 0.99)), "us"}
	m["serve.wait_us"] = metric{usOf(serveP50 - mapAvg - fwdAvg), "us"}
	m["serve.mean_batch"] = metric{st.MeanBatch(), "requests"}
	m["serve.rejected"] = metric{float64(st.Rejected), "count"}

	// The cluster layer is timed on every workload. On submit-f32 the
	// daemon does not route through it, so there its numbers show what
	// the layer would cost on these inputs and stay out of the
	// decomposition below.
	view, err = ref.view.Clone()
	if err != nil {
		return err
	}
	cl, err := cluster.New(view, e.clusterConfig())
	if err != nil {
		return err
	}
	clusterCall := func(it item) (int, reply, error) {
		resp, err := cl.Predict(ctx, request(it.job))
		return http.StatusOK, replyOf(resp.Pred, resp.FromModel, resp.Degraded, resp.Cached), err
	}
	e.warmUp(clusterCall)
	cst0 := cl.Stats()
	cs := openLoop(items, e.conns, clusterCall, tr.spanAs("cluster.predict"))
	cst := cl.Stats()
	if err := cl.Stop(ctx); err != nil {
		return err
	}
	e.checkPhase(&res, ref, "cluster-inproc", "open", e.conns, cs, 0)
	durs = tr.selfTimes()
	clusterP50 := quantileDur(durs["cluster.predict"], 0.5)
	hitRatio := 0.0
	if hits, misses := cst.CacheHits-cst0.CacheHits, cst.CacheMisses-cst0.CacheMisses; hits+misses > 0 {
		hitRatio = float64(hits) / float64(hits+misses)
	}
	m["cluster.predict_us.p50"] = metric{usOf(clusterP50), "us"}
	m["cluster.predict_us.p99"] = metric{usOf(quantileDur(durs["cluster.predict"], 0.99)), "us"}
	m["cluster.cache_hit_ratio"] = metric{hitRatio, "ratio"}
	m["cluster.retries"] = metric{float64(cst.Retries - cst0.Retries), "count"}
	m["cluster.degraded"] = metric{float64(cst.Degraded - cst0.Degraded), "count"}
	engine, engineP50 := "serve", serveP50
	if e.w.replicas > 1 {
		engine, engineP50 = "cluster", clusterP50
	}

	// Decomposition of the untraced median into independently measured
	// medians: client wait for a connection (the wait's self time; the
	// generator's lateness is not in the latency), the HTTP exchange
	// (/healthz round trips), and the in-process serving layer the
	// daemon runs (on submit-f32: serve wait, map and forward). What
	// none of them covers, such as the /predict JSON encoding and the
	// daemon serving slower than the same layer in process, and the
	// medians' non-additivity are the residual.
	cw, hs := msOf(quantileDur(queued, 0.5)), m["prionnd.http_self_ms.p50"].Value
	sum := cw + hs + msOf(engineP50)
	m["decomp.residual_ms"] = metric{untracedP50 - sum, "ms"}
	e.logf("decomposition of predict p50 %.3f ms (untraced half; traced half %.3f ms): client wait %.3f + http %.3f + %s %.3f = %.3f ms, residual %.3f ms",
		untracedP50, tracedP50, cw, hs, engine, msOf(engineP50), sum, untracedP50-sum)
	e.logf("  serve layer p50 %.3f ms = wait %.3f + map %.3f + forward %.3f (per-batch means, mean batch %.2f)",
		msOf(serveP50), msOf(serveP50-mapAvg-fwdAvg), msOf(mapAvg), msOf(fwdAvg), st.MeanBatch())

	ledger, err := e.layers(p, ref.view, tr, m)
	if err != nil {
		return err
	}
	if err := e.pilotStages(p, tr, m); err != nil {
		return err
	}

	tr.selfTimes()
	if err := writeJSON(filepath.Join(e.runDir, "spans.json"), tr.spans); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(e.runDir, "roofline.json"), ledger); err != nil {
		return err
	}
	for _, pl := range perLayer {
		got, ok := m[pl.name]
		if !ok {
			return fmt.Errorf("per-layer metric %s not measured", pl.name)
		}
		if got.Unit != pl.unit {
			return fmt.Errorf("per-layer metric %s has unit %s, want %s", pl.name, got.Unit, pl.unit)
		}
	}
	if len(m) != len(perLayer) {
		return fmt.Errorf("%d per-layer metrics measured, %d declared", len(m), len(perLayer))
	}
	e.rec.Result = res
	printMetrics(e.logf, m)
	return nil
}
