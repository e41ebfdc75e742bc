package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"prionn/internal/prionn"
)

// setupStarts is how many times each run starts prionnd to measure
// set-up time and peak memory; each is reported as the median over the
// starts, since both vary with the garbage collector's timing.
const setupStarts = 7

// openShare is the share of --seconds given to the open-loop replay;
// the closed-loop capacity phase takes the rest. A traced run replays
// the same schedule and has no capacity phase.
const openShare = 0.75

// env carries what every phase of one run needs.
type env struct {
	w       workload
	o       options
	runDir  string
	cfg     prionn.Config
	in      inputs
	fixture string
	conns   int
	logf    func(string, ...any)
	rec     *record
}

// benchmark runs one workload, traced or not, and returns its record.
func benchmark(w workload, o options, runDir string, logf func(string, ...any)) (*record, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	host, err := probeHost(root)
	if err != nil {
		return nil, err
	}
	e := &env{w: w, o: o, runDir: runDir, cfg: fixtureConfig(o.seed), logf: logf, conns: host.NProc}
	e.in = makeInputs(o.seed, e.cfg, w, seconds(o.seconds, openShare))
	e.rec = &record{Workload: w.name, Seed: o.seed, Seconds: o.seconds, Traced: o.trace, Host: host, Inputs: e.in.rec}
	logf("%s seed %d: host %s, nproc %d, int8 path %s; replay slice @%d len %d, unique scripts %.1f%%, peak/mean %.2f",
		w.name, o.seed, host.CPUModel, host.NProc, host.Int8Path, e.in.rec.SliceOffset, e.in.rec.SliceLen,
		100*e.in.rec.UniqueRatio, e.in.rec.PeakToMean)

	total0, steal0 := cpuTicks()
	e.fixture = filepath.Join(runDir, "fixture.ckpt")
	t0 := time.Now()
	if err := trainFixture(e.cfg, e.in.fixture, e.fixture); err != nil {
		return nil, fmt.Errorf("training fixture: %w", err)
	}
	logf("fixture trained on %d jobs in %v", len(e.in.fixture), time.Since(t0).Round(time.Millisecond))

	if o.trace {
		err = e.traced()
	} else {
		err = e.untraced()
	}
	if err != nil {
		return nil, err
	}
	total1, steal1 := cpuTicks()
	e.rec.StealShare = stealShare(total0, steal0, total1, steal1)
	logf("host CPU time stolen by other guests during the run: %.2f%%", 100*e.rec.StealShare)
	return e.rec, nil
}

func seconds(total int, share float64) time.Duration {
	return time.Duration(float64(total) * share * float64(time.Second))
}

// launch starts a prionnd with the workload's flags on the fixture.
func (e *env) launch() (*daemon, error) {
	args := []string{"-load", e.fixture, "-seed", strconv.FormatInt(e.o.seed, 10), "-jobs", strconv.Itoa(daemonJobs)}
	return startDaemon(e.o.prionnd, append(args, e.w.flags...))
}

// warmUp sends the warm-up day's submissions to call back to back
// over the generator's connections.
func (e *env) warmUp(call caller) []sample {
	return openLoop(predictItems(e.in.warm, nil), e.conns, call, nil)
}

// startDaemons starts prionnd n times, and each serves the warm-up day.
// It returns the set-up times, the peak resident sets of all but the
// last daemon, read after the warm-up day so that they cover load,
// snapshot, the cache filling and serving, the warm-up samples of all
// of them, and the last daemon, still running.
func (e *env) startDaemons(n int) (setups, rss []float64, warm []sample, last *daemon, err error) {
	for k := 0; k < n; k++ {
		d, err := e.launch()
		if err != nil {
			return nil, nil, nil, nil, err
		}
		setups = append(setups, d.setup.Seconds())
		c := newClient(d.addr, e.conns)
		warm = append(warm, e.warmUp(c.predict)...)
		c.close()
		if k == n-1 {
			return setups, rss, warm, d, nil
		}
		mb, err := d.peakRSSMB()
		if err != nil {
			d.kill()
			return nil, nil, nil, nil, err
		}
		rss = append(rss, mb)
		if err := d.stopWithin(60 * time.Second); err != nil {
			return nil, nil, nil, nil, err
		}
	}
	return nil, nil, nil, nil, fmt.Errorf("no daemon started")
}

func copyFile(src, dst string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, data, 0o644)
}

// replay runs the open-loop phase against the daemon behind c and
// returns its samples and span; done, when set, records spans.
func (e *env) replay(c *client, done func(time.Time, int, *sample)) ([]sample, time.Duration) {
	start := time.Now()
	samples := openLoop(predictItems(e.in.replay, e.in.due), e.conns, c.predict, done)
	//prionnvet:ignore time-dep -- timing is what the benchmark measures
	return samples, time.Since(start)
}

// references loads the fixture and builds the referee for the view the
// workload's daemon serves.
func (e *env) references() (*referee, *prionn.Predictor, error) {
	p, err := prionn.LoadFile(e.fixture)
	if err != nil {
		return nil, nil, err
	}
	view, err := referenceView(p, e.w.quant, e.o.seed)
	if err != nil {
		return nil, nil, err
	}
	return newReferee(view), p, nil
}

// untraced is the end-to-end run: set-up, warm-up, the open-loop
// replay, the closed-loop capacity phase, then the answer checks.
func (e *env) untraced() error {
	setups, rssAll, warm, d, err := e.startDaemons(setupStarts)
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
	open, openSpan := e.replay(c, nil)
	sat, satSpan := closedLoop(c, e.in.gen, e.conns, seconds(e.o.seconds, 1-openShare))
	c.close()
	rss, err := d.peakRSSMB()
	if err != nil {
		return err
	}
	stopped = true
	if err := d.stopWithin(90 * time.Second); err != nil {
		return err
	}

	ref, _, err := e.references()
	if err != nil {
		return err
	}
	res := result{Correct: true, Metrics: map[string]metric{}}
	e.checkPhase(&res, ref, "warm-up", "closed", e.conns, warm, 0)
	e.checkPhase(&res, ref, "replay", "open", e.conns, open, openSpan)
	e.checkPhase(&res, ref, "capacity", "closed", e.conns, sat, satSpan)
	// A submitting user sees the open-loop median latency; one with a
	// new script sees the median of the answers the model computed
	// (every answer on submit-f32, cache misses, so the int8 forward
	// pass, on submit-int8-cached). Memory and set-up time are reported
	// so that work moved into set-up shows. The p90 (where lone requests
	// give way to queued ones on submit-f32), the p99 and the
	// closed-loop capacity move between runs by more than the
	// benchmark's bounds, so they are printed and recorded, not reported
	// as metrics.
	lat := latenciesMs(open)
	satOK := 0
	for i := range sat {
		if sat[i].ok() {
			satOK++
		}
	}
	rssAll = append(rssAll, rss)
	m := res.Metrics
	m["setup_s"] = metric{median(setups), "s"}
	m["predict_p50_ms"] = metric{quantile(lat, 0.5), "ms"}
	m["predict_uncached_p50_ms"] = metric{quantile(uncachedMs(open), 0.5), "ms"}
	m["rss_peak_mb"] = metric{median(rssAll), "MB"}
	e.rec.Recorded = map[string]metric{
		"predict_p90_ms":       {quantile(lat, 0.9), "ms"},
		"predict_p99_ms":       {quantile(lat, 0.99), "ms"},
		"sat_rps":              {float64(satOK) / satSpan.Seconds(), "req/s"},
		"predict_failed_ratio": {float64(res.Failed) / float64(max(1, res.Attempted)), "ratio"},
		"rss_peak_last_mb":     {rss, "MB"},
	}
	e.logf("%d open-loop samples, %d beyond the p99", len(lat), len(lat)/100)
	e.logf("set-up times %v s, peak resident sets %v MB (the last after the whole workload)", setups, rssAll)
	e.rec.Result = res
	printMetrics(e.logf, e.rec.Recorded)
	printMetrics(e.logf, res.Metrics)
	return nil
}

// checkPhase checks a phase's answers against the references, records
// its report and adds its counts to res. A mismatch or a phase whose
// schedule the generator did not keep makes the run incorrect.
func (e *env) checkPhase(res *result, ref *referee, name, loop string, conns int, samples []sample, span time.Duration) {
	bad, first := ref.check(samples)
	if bad > 0 {
		res.Correct = false
		e.logf("%s: %d answers differ from the reference; first: %s", name, bad, first)
	}
	r := report(name, loop, conns, samples, bad, span)
	if !r.Valid {
		res.Correct = false
		e.logf("%s phase invalid: %s", name, r.Note)
	}
	e.rec.Phases = append(e.rec.Phases, r)
	res.Attempted += r.Sent
	res.Failed += r.Failed
	e.logf("phase %-15s %s loop, %d conns: sent %d, succeeded %d, failed %d, degraded %d, cached %d, late p99 %.3f ms",
		r.Name, r.Loop, r.Conns, r.Sent, r.Succeeded, r.Failed, r.Degraded, r.Cached, r.LateP99Ms)
}

// uncachedMs is the latency of the answers the model computed, not the
// cluster's cache.
func uncachedMs(samples []sample) []float64 {
	var out []float64
	for i := range samples {
		if !samples[i].reply.Cached {
			out = append(out, msOf(samples[i].latency()))
		}
	}
	return out
}

func latenciesMs(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i := range samples {
		out[i] = msOf(samples[i].latency())
	}
	return out
}
