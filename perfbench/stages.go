package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"prionn/internal/cluster"
	"prionn/internal/pilot"
	"prionn/internal/prionn"
	"prionn/internal/serve"
	"prionn/internal/trace"
)

// pilotEvents is how many training events pilotStages times: enough
// for a median, few enough that the traced run stays well within its
// time limit.
const pilotEvents = 8

// pilotStages measures the online-learning loop in process on the
// workload's completions and requests. The pilot retrains the f32
// model, which an int8 daemon serves quantized, so it runs on every
// workload, also where the daemon itself does not retrain. First it
// replays the slice's completions through pilot.New and Observe,
// restored from the fixture, and times the first pilotEvents Observe
// calls that trigger a training event: the event's retrain, checkpoint
// and shadow decision (pilot.event_s). Then it drives each stage
// directly through its public function, so every stage is timed even
// when the gate accepted no candidate: retrain on the slice's last
// window (Predictor.TrainCtx), checkpoint (SaveFile), shadow
// evaluation (pilot.Evaluate), canary from StartCanary to a verdict
// under the workload's requests, and the cluster-wide swap
// (PromoteCanary).
func (e *env) pilotStages(p *prionn.Predictor, tr *tracer, m map[string]metric) error {
	m["pilot.shadow_accept_ratio"] = metric{0, "ratio"}
	ctx := context.Background()

	base, err := p.Snapshot()
	if err != nil {
		return err
	}
	srv := serve.New(base, serve.Config{})
	defer func() { _ = srv.Stop(ctx) }()
	ckpt := filepath.Join(e.runDir, "events.ckpt")
	if err := copyFile(e.fixture, ckpt); err != nil {
		return err
	}
	pl, err := pilot.New(pilot.Config{Model: e.cfg, Canary: cluster.CanaryConfig{Frac: 0.1}, CheckpointPath: ckpt},
		&pilot.DirectDeployer{Srv: srv})
	if err != nil {
		return err
	}
	var events []float64
	for _, j := range e.in.replay {
		if len(events) == pilotEvents {
			break
		}
		before := pl.Events()
		t0 := time.Now()
		if err := pl.Observe(ctx, j); err != nil {
			return err
		}
		if pl.Events() != before {
			t1 := time.Now()
			tr.add("pilot.event", t0, t1, -1, -1)
			//prionnvet:ignore time-dep -- timing is what the benchmark measures
			events = append(events, t1.Sub(t0).Seconds())
		}
	}
	if len(events) > 0 {
		m["pilot.event_s"] = metric{median(events), "s"}
	}
	st := pl.Status()
	if dec := st.ShadowAccepted + st.ShadowRejected; dec > 0 {
		m["pilot.shadow_accept_ratio"] = metric{float64(st.ShadowAccepted) / float64(dec), "ratio"}
	}
	e.logf("in-process pilot: %d events from %d completions, event times %v s, shadow %d accepted / %d rejected",
		len(events), len(e.in.replay), events, st.ShadowAccepted, st.ShadowRejected)

	completed := trace.Completed(e.in.replay)
	window := completed[max(0, len(completed)-e.cfg.TrainWindow):]
	shadow := completed[max(0, len(completed)-64):]
	t0 := time.Now()
	if _, err := p.TrainCtx(ctx, window); err != nil {
		return err
	}
	t1 := time.Now()
	tr.add("pilot.retrain", t0, t1, -1, -1)
	if err := p.SaveFile(filepath.Join(e.runDir, "stage.ckpt")); err != nil {
		return err
	}
	t2 := time.Now()
	tr.add("pilot.checkpoint", t1, t2, -1, -1)
	cand, err := p.Snapshot()
	if err != nil {
		return err
	}
	t3 := time.Now()
	if _, err := pilot.Evaluate(base, cand, shadow, pilot.GateConfig{}); err != nil {
		return err
	}
	t4 := time.Now()
	tr.add("pilot.shadow", t3, t4, -1, -1)
	m["pilot.retrain_s"] = metric{t1.Sub(t0).Seconds(), "s"}
	m["pilot.checkpoint_s"] = metric{t2.Sub(t1).Seconds(), "s"}
	m["pilot.shadow_s"] = metric{t4.Sub(t3).Seconds(), "s"}

	// Canary: prionnd's canary fraction; the disagreement limit is lifted
	// so that the stage runs to promotion and the swap is timed (a
	// retrained model is expected to disagree). A canary needs
	// PromoteAfter/Frac = 500 requests, tens of seconds at the replay's
	// rate, so the workload's requests are sent back to back.
	ccfg := e.clusterConfig()
	ccfg.Replicas = 2
	cl, err := cluster.New(base, ccfg)
	if err != nil {
		return err
	}
	defer func() { _ = cl.Stop(ctx) }()
	t5 := time.Now()
	if err := cl.StartCanary(cand, cluster.CanaryConfig{Frac: 0.1, MaxDisagreeRate: 1}); err != nil {
		return err
	}
	verdict := ""
	src := trace.NewGenerator(trace.Config{Seed: traceSeed, Users: e.w.users})
	for verdict == "" {
		if time.Since(t5) > 60*time.Second {
			return fmt.Errorf("canary reached no verdict within 60s")
		}
		j := src.Next()
		if _, err := cl.Predict(ctx, request(j)); err != nil {
			return err
		}
		switch ph := cl.CanaryStatus().Phase; ph {
		case cluster.CanaryPromoteReady.String(), cluster.CanaryRolledBack.String():
			verdict = ph
		}
	}
	t6 := time.Now()
	tr.add("pilot.canary", t5, t6, -1, -1)
	m["pilot.canary_s"] = metric{t6.Sub(t5).Seconds(), "s"}
	m["cluster.canary_requests"] = metric{float64(cl.Stats().CanaryRequests), "count"}
	if verdict != cluster.CanaryPromoteReady.String() {
		return fmt.Errorf("canary ended %s", verdict)
	}
	if err := cl.PromoteCanary(ctx); err != nil {
		return err
	}
	t7 := time.Now()
	tr.add("cluster.swap", t6, t7, -1, -1)
	m["cluster.swap_ms"] = metric{msOf(t7.Sub(t6)), "ms"}
	return nil
}
