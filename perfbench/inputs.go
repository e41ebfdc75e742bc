package main

import (
	"sort"
	"time"

	"prionn/internal/prionn"
	"prionn/internal/trace"
)

// workload is one traffic mix against one prionnd configuration.
type workload struct {
	name string
	// flags are the prionnd flags beyond the common -load/-seed/-jobs.
	flags    []string
	quant    bool
	replicas int
	// days is how many whole trace days the open-loop replay covers,
	// compressed into the replay phase: whole days give every seed the
	// same daily arrival cycle (peaks run about twice the mean), so runs
	// differ in their jobs, not in how bursty they are. The resulting
	// mean rates sit well below each configuration's latency knee.
	days int
	// users sizes the trace's user population so that the replay slice
	// repeats scripts about as often as the paper's trace (≈37% unique
	// scripts); a slice of the default 492-user population is far more
	// unique than the whole trace.
	users int
}

// fixtureConfig is the model every workload serves: the daemon's default
// FastConfig architecture (32×32 word2vec-4 scripts, width 0.5 2D-CNN,
// runtime and both IO heads), so serving cost is the daemon's; with a
// short training window, one epoch and a matching retrain cadence, so
// building the fixture and each online retraining event take about a
// second.
func fixtureConfig(seed int64) prionn.Config {
	c := prionn.FastConfig()
	c.TrainWindow = 48
	c.RetrainEvery = 96
	c.Epochs = 1
	c.Seed = seed
	return c
}

// daemonCache is prionnd's default -cache, the prediction-cache size
// of every cluster the workloads run.
const daemonCache = 4096

// daemonJobs is the -jobs value passed to every prionnd: the length of
// the trace the daemon generates from its -seed. With -load it only
// feeds -quant calibration (the last 256 completed jobs).
const daemonJobs = 600

var workloads = map[string]workload{
	// Every request runs through the single coalescing server, mapping
	// and the f32 forward pass; no cache. Serving defaults throughout.
	"submit-f32": {name: "submit-f32", replicas: 1, days: 2, users: 160},
	// The cluster route and prediction cache dominate: repeated scripts
	// are answered from the cache and the int8 kernels run only on
	// misses; f32 never runs.
	"submit-int8-cached": {name: "submit-int8-cached", quant: true, replicas: 2, days: 3, users: 300,
		flags: []string{"-quant", "-replicas", "2", "-policy", "affinity"}},
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// inputs are one run's generated requests, all drawn from one seeded
// synthetic trace in submission order: the fixture's training jobs,
// warm-up submissions, the open-loop replay slice with its arrival
// schedule, and a generator that continues the trace for closed-loop
// phases. Nothing is drawn from a fixed list.
type inputs struct {
	fixture []trace.Job // completed jobs the fixture trains on
	warm    []trace.Job // the day before the replay
	replay  []trace.Job
	due     []time.Duration // replay[i] is due this long after the phase starts
	gen     *trace.Generator
	rec     inputsRecord
}

// inputsRecord describes the inputs so that runs can be told apart and
// the chosen slice is recorded rather than hand-picked.
type inputsRecord struct {
	Seed         int64   `json:"seed"`
	TraceSeed    int64   `json:"trace_seed"`
	Users        int     `json:"trace_users"`
	Days         int     `json:"trace_days"`
	SliceOffset  int     `json:"slice_offset"`
	SliceLen     int     `json:"slice_len"`
	RatePerSec   float64 `json:"mean_rate_per_s"`
	UniqueRatio  float64 `json:"unique_script_ratio"`
	PeakToMean   float64 `json:"peak_to_mean_arrivals_per_s"`
	CanceledJobs int     `json:"canceled_jobs"`
	FixtureJobs  int     `json:"fixture_jobs"`
}

// traceSeed fixes the synthetic site every run replays: one user and
// application population, as the paper evaluates one site's trace. The
// run's seed picks which days of that site are replayed (and seeds the
// fixture's model), so runs differ in their jobs while the population's
// script mix, and with it the per-request cost, stays the site's.
const traceSeed = 1

// traceDays is how many days of the site's history the run seed can
// start its replay at.
const traceDays = 28

// makeInputs draws the run's requests. The replay slice is every
// submission of w.days whole trace days, starting at midnight of a
// seed-chosen day; its arrival times are the trace's own submit times,
// compressed so the days last span. The day before the slice is the
// warm-up, sent untimed so that connections, pools and the prediction
// cache are in the state a deployed daemon would have. The fixture
// trains on the TrainWindow most recently completed jobs before the
// slice, as the paper's deployment trains on recent history.
func makeInputs(seed int64, cfg prionn.Config, w workload, span time.Duration) inputs {
	tc := trace.DefaultConfig(0)
	tc.Seed, tc.Users = traceSeed, w.users
	g := trace.NewGenerator(tc)
	const day = 86400
	first := tc.StartTime + day*(1+((seed%traceDays)+traceDays)%traceDays)
	last := first + int64(w.days)*day
	var before []trace.Job
	j := g.Next()
	for ; j.SubmitTime < first; j = g.Next() {
		before = append(before, j)
	}
	var in inputs
	for i := len(before) - 1; i >= 0 && len(in.fixture) < cfg.TrainWindow; i-- {
		if !before[i].Canceled {
			in.fixture = append([]trace.Job{before[i]}, in.fixture...)
		}
	}
	for i := len(before) - 1; i >= 0 && before[i].SubmitTime >= first-day; i-- {
		in.warm = before[i:]
	}
	for ; j.SubmitTime < last; j = g.Next() {
		in.replay = append(in.replay, j)
	}
	// g has already drawn j, the first job after the slice; the
	// closed-loop phases continue from the job after it.
	in.gen = g
	scale := span.Seconds() / float64(last-first)
	in.due = make([]time.Duration, len(in.replay))
	canceled := 0
	for i, r := range in.replay {
		in.due[i] = time.Duration(float64(r.SubmitTime-first) * scale * float64(time.Second))
		if r.Canceled {
			canceled++
		}
	}
	n := len(in.replay)
	in.rec = inputsRecord{
		Seed:         seed,
		TraceSeed:    traceSeed,
		Users:        w.users,
		Days:         w.days,
		SliceOffset:  len(before),
		SliceLen:     n,
		RatePerSec:   float64(n) / span.Seconds(),
		UniqueRatio:  float64(trace.UniqueScripts(in.replay)) / float64(n),
		PeakToMean:   peakToMean(in.due, span),
		CanceledJobs: canceled,
		FixtureJobs:  len(in.fixture),
	}
	return in
}

// peakToMean is the busiest one-second window's arrival count over the
// mean count per second.
func peakToMean(due []time.Duration, span time.Duration) float64 {
	if len(due) == 0 || span <= 0 {
		return 1
	}
	bins := map[int64]int{}
	peak := 0
	for _, d := range due {
		b := int64(d / time.Second)
		bins[b]++
		peak = max(peak, bins[b])
	}
	return float64(peak) / (float64(len(due)) / span.Seconds())
}

// trainFixture builds the checkpoint every daemon of the run serves,
// through the public New/Train/SaveFile, on the fixture's jobs.
func trainFixture(cfg prionn.Config, jobs []trace.Job, path string) error {
	scripts := make([]string, len(jobs))
	for i, j := range jobs {
		scripts[i] = j.Script
	}
	p, err := prionn.New(cfg, scripts)
	if err != nil {
		return err
	}
	if _, err := p.Train(jobs); err != nil {
		return err
	}
	return p.SaveFile(path)
}
