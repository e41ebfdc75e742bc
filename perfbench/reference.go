package main

import (
	"fmt"
	"math"

	"prionn/internal/prionn"
	"prionn/internal/trace"
)

// referee checks the daemon's answers against predictions computed in
// process from the same checkpoint. Serving is batch-invariant and the
// cluster cache stores exact answers, so every model answer must equal
// the reference bit for bit.
type referee struct {
	view *prionn.Inference
	memo map[string]prionn.Prediction
}

func newReferee(view *prionn.Inference) *referee {
	return &referee{view: view, memo: map[string]prionn.Prediction{}}
}

// refBatch is the batch size of reference forwards; answers do not
// depend on it.
const refBatch = 64

// predictAll fills the memo for texts not yet predicted.
func (r *referee) predictAll(texts []string) {
	var todo []string
	seen := map[string]bool{}
	for _, t := range texts {
		if _, ok := r.memo[t]; !ok && !seen[t] {
			seen[t] = true
			todo = append(todo, t)
		}
	}
	for lo := 0; lo < len(todo); lo += refBatch {
		hi := min(lo+refBatch, len(todo))
		preds := r.view.PredictMapped(r.view.MapTexts(todo[lo:hi]))
		for i, p := range preds {
			r.memo[todo[lo+i]] = p
		}
	}
}

// check compares every model answer among samples with the reference
// and returns how many differ, with the first mismatch described.
func (r *referee) check(samples []sample) (int, string) {
	var idx []int
	var texts []string
	for i := range samples {
		if samples[i].ok() {
			idx = append(idx, i)
			texts = append(texts, r.view.InputText(samples[i].job.Script, samples[i].job.InputDeck))
		}
	}
	r.predictAll(texts)
	bad, first := 0, ""
	for n, i := range idx {
		if want := r.memo[texts[n]]; !sameAnswer(samples[i].reply, want) {
			if bad == 0 {
				first = fmt.Sprintf("job %d: got %+v, reference %+v", samples[i].job.ID, samples[i].reply, want)
			}
			bad++
		}
	}
	return bad, first
}

// sameAnswer is bitwise equality of the wire answer and a prediction.
// JSON float64 encoding round-trips exactly.
func sameAnswer(a reply, p prionn.Prediction) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.RuntimeMin == p.RuntimeMin &&
		same(a.ReadBytes, p.ReadBytes) && same(a.WriteBytes, p.WriteBytes) &&
		same(a.ReadBW, p.ReadBW()) && same(a.WriteBW, p.WriteBW()) &&
		same(a.PowerW, p.PowerW)
}

// daemonCalibration is the slice prionnd -quant calibrates on when it
// serves a loaded checkpoint: the last 256 completed jobs of the trace
// it generates from -seed and -jobs.
func daemonCalibration(seed int64) []trace.Job {
	completed := trace.Completed(trace.Generate(trace.Config{Seed: seed, Jobs: daemonJobs}))
	if len(completed) > 256 {
		completed = completed[len(completed)-256:]
	}
	return completed
}

// referenceView is the view a workload's daemon serves at start: the
// fixture's f32 snapshot, or its int8 quantization on the daemon's
// calibration slice.
func referenceView(p *prionn.Predictor, quant bool, seed int64) (*prionn.Inference, error) {
	if quant {
		return p.SnapshotQuantized(daemonCalibration(seed))
	}
	return p.Snapshot()
}
