package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"prionn/internal/nn"
	"prionn/internal/prionn"
	"prionn/internal/tensor"
)

// ledgerRow is one roofline ledger entry: a model op's work and data
// movement, computed from tensor sizes, next to its measured time.
type ledgerRow struct {
	Op     string `json:"op"`
	Kernel string `json:"kernel"` // f32 or int8
	Kind   string `json:"kind"`   // gemm (conv, dense) or elementwise (pool, relu)
	Shape  string `json:"shape"`
	// FLOPs counts multiply-adds as two operations; pooling and ReLU
	// count one comparison per input element. Computed, not measured.
	FLOPs float64 `json:"flops_computed"`
	// Bytes is inputs + weights + bias + outputs plus, for convolutions,
	// the im2col matrix written and read once and (int8) the int32
	// accumulator written and read once. Computed from tensor sizes;
	// cache reuse and misses are ignored.
	Bytes     float64 `json:"bytes_computed"`
	OpPerByte float64 `json:"op_per_byte"`
	Micros    float64 `json:"measured_us"`
	GFLOPs    float64 `json:"achieved_gflops"`
}

func (r *ledgerRow) finish(us float64) {
	r.Micros = us
	if r.Bytes > 0 {
		r.OpPerByte = r.FLOPs / r.Bytes
	}
	if us > 0 {
		r.GFLOPs = r.FLOPs / (us * 1e3)
	}
}

// timeMedian runs fn reps times and returns the median duration, each
// call recorded as a span named name under parent.
func timeMedian(tr *tracer, name string, parent, reps int, fn func()) time.Duration {
	ds := make([]time.Duration, reps)
	for i := range ds {
		t0 := time.Now()
		fn()
		t1 := time.Now()
		tr.add(name, t0, t1, parent, -1)
		//prionnvet:ignore time-dep -- timing is what the benchmark measures
		ds[i] = t1.Sub(t0)
	}
	return quantileDur(ds, 0.5)
}

// layers times the mapping, prionn, nn and tensor layers at serving
// batch sizes through their public functions, on the run's own replay
// scripts, and returns the roofline ledger of the model ops.
func (e *env) layers(p *prionn.Predictor, served *prionn.Inference, tr *tracer, m map[string]metric) ([]ledgerRow, error) {
	var texts []string
	for _, j := range e.in.replay {
		texts = append(texts, served.InputText(j.Script, j.InputDeck))
		if len(texts) == 64 {
			break
		}
	}
	f32, err := p.Snapshot()
	if err != nil {
		return nil, err
	}
	calib := daemonCalibration(e.o.seed)
	int8v, err := p.SnapshotQuantized(calib)
	if err != nil {
		return nil, err
	}

	// mapping: Inference.MapTexts.
	for _, b := range []int{1, 2} {
		d := timeMedian(tr, fmt.Sprintf("mapping.map.b%d", b), -1, 200, func() { f32.MapTexts(texts[:b]) })
		m[fmt.Sprintf("mapping.map_us.b%d", b)] = metric{usOf(d), "us"}
	}
	// prionn: Inference.PredictMapped per kernel and batch size.
	for _, k := range []struct {
		name string
		v    *prionn.Inference
	}{{"f32", f32}, {"int8", int8v}} {
		for _, b := range []int{1, 2, 64} {
			x := k.v.MapTexts(texts[:b])
			reps := 40
			if b == 64 {
				reps = 6
			}
			d := timeMedian(tr, fmt.Sprintf("prionn.forward.%s.b%d", k.name, b), -1, reps, func() { k.v.PredictMapped(x) })
			m[fmt.Sprintf("prionn.forward_us.%s.b%d", k.name, b)] = metric{usOf(d), "us"}
		}
	}
	// prionn set-up stages: the daemon's load, snapshot and quantization.
	d := timeMedian(tr, "prionn.load", -1, 3, func() {
		if _, err = prionn.LoadFile(e.fixture); err != nil {
			panic(err)
		}
	})
	m["prionn.load_s"] = metric{d.Seconds(), "s"}
	d = timeMedian(tr, "prionn.snapshot", -1, 3, func() { _, _ = p.Snapshot() })
	m["prionn.snapshot_s"] = metric{d.Seconds(), "s"}
	d = timeMedian(tr, "prionn.quantize", -1, 3, func() { _, _ = p.SnapshotQuantized(calib) })
	m["prionn.quantize_s"] = metric{d.Seconds(), "s"}

	return e.nnLayers(f32, texts, tr, m)
}

// nnLayers times every op of the runtime head at batch 1, f32 through
// Layer.Forward and int8 through nn.Quantize's QOp.QForward, plus the
// tensor kernels under the first two convolutions. The head is rebuilt
// with nn.NewCNN2D at the fixture's architecture: op cost does not
// depend on the weight values.
func (e *env) nnLayers(f32 *prionn.Inference, texts []string, tr *tracer, m map[string]metric) ([]ledgerRow, error) {
	x1 := f32.MapTexts(texts[:1])
	calibX := f32.MapTexts(texts)
	head := nn.NewCNN2D(rand.New(rand.NewSource(e.o.seed)), nn.ArchConfig{
		Rows: e.cfg.Rows, Cols: e.cfg.Cols, Channels: x1.Dim(1), Classes: e.cfg.RuntimeClasses, Width: e.cfg.Width,
	})
	const reps = 60
	var ledger []ledgerRow

	// f32: walk the layers, timing each; ReLUs are summed into one row.
	names := make([]string, len(head.Layers))
	counts := map[string]int{}
	for i, l := range head.Layers {
		switch l.(type) {
		case *nn.Conv2D:
			counts["conv"]++
			names[i] = fmt.Sprintf("conv%d", counts["conv"])
		case *nn.MaxPool2D:
			counts["pool"]++
			names[i] = fmt.Sprintf("pool%d", counts["pool"])
		case *nn.Dense:
			counts["dense"]++
			names[i] = fmt.Sprintf("dense%d", counts["dense"])
		case *nn.ReLU:
			names[i] = "relu"
		default:
			names[i] = l.Name()
		}
	}
	var uniq []string // names in layer order, each once
	for _, n := range names {
		if !slices.Contains(uniq, n) {
			uniq = append(uniq, n)
		}
	}
	times := map[string][]time.Duration{}
	inputs := make([]*tensor.Tensor, len(head.Layers)) // per-layer input, for the tensor rows
	for r := 0; r < reps; r++ {
		x := x1
		t0 := time.Now()
		root := tr.add("nn.forward.f32", t0, t0, -1, -1)
		took := make([]time.Duration, len(head.Layers))
		for i, l := range head.Layers {
			inputs[i] = x
			a := time.Now()
			x = l.Forward(x, false)
			b := time.Now()
			tr.add("nn.f32."+names[i], a, b, root, -1)
			//prionnvet:ignore time-dep -- timing is what the benchmark measures
			took[i] = b.Sub(a)
		}
		tr.end(root, time.Now())
		// One sample per op name and rep; the ReLUs add up.
		sum := map[string]time.Duration{}
		for i, n := range names {
			sum[n] += took[i]
		}
		for _, n := range uniq {
			times[n] = append(times[n], sum[n])
		}
	}
	var order []string
	rows := map[string]*ledgerRow{}
	for i, l := range head.Layers {
		row := f32Ledger(names[i], l, inputs[i])
		if row == nil {
			continue
		}
		if prev, ok := rows[names[i]]; ok { // the ReLUs share one row
			prev.FLOPs += row.FLOPs
			prev.Bytes += row.Bytes
			prev.Shape += " + " + row.Shape
			continue
		}
		rows[names[i]] = row
		order = append(order, names[i])
	}
	for _, n := range order {
		r := rows[n]
		r.finish(usOf(quantileDur(times[n], 0.5)))
		ledger = append(ledger, *r)
		m["nn.f32."+n+"_us"] = metric{r.Micros, "us"}
		if r.Kind == "gemm" {
			m["nn.f32."+n+"_gflops"] = metric{r.GFLOPs, "GFLOP/s"}
		}
	}

	// int8: quantize the head on the run's scripts and walk its ops.
	qm, err := nn.Quantize(head, calibX)
	if err != nil {
		return nil, err
	}
	qnames := make([]string, len(qm.Ops))
	qcounts := map[string]int{}
	for i, op := range qm.Ops {
		kind := "op"
		switch op.(type) {
		case *nn.QConv2D:
			kind = "conv"
		case *nn.QMaxPool2D:
			kind = "pool"
		case *nn.QDense:
			kind = "dense"
		}
		qcounts[kind]++
		qnames[i] = fmt.Sprintf("%s%d", kind, qcounts[kind])
	}
	qtimes := map[string][]time.Duration{}
	qinputs := make([][]uint8, len(qm.Ops))
	var headIn []uint8
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		root := tr.add("nn.forward.int8", t0, t0, -1, -1)
		q := make([]uint8, x1.Len())
		for i, v := range x1.Data {
			q[i] = qm.InQ.Quantize(v)
		}
		spent := time.Since(t0)
		for i, op := range qm.Ops {
			qinputs[i] = q
			a := time.Now()
			q = op.QForward(q, 1)
			b := time.Now()
			tr.add("nn.int8."+qnames[i], a, b, root, -1)
			//prionnvet:ignore time-dep -- timing is what the benchmark measures
			qtimes[qnames[i]] = append(qtimes[qnames[i]], b.Sub(a))
			spent += b.Sub(a)
		}
		headIn = q
		tr.end(root, time.Now())
		// The logits head is not a QOp: time the whole quantized
		// forward and take off the input quantization and the ops.
		a := time.Now()
		qm.Predict(x1)
		whole := time.Since(a)
		tr.add("nn.int8.predict", a, a.Add(whole), -1, -1)
		//prionnvet:ignore time-dep -- timing is what the benchmark measures
		qtimes["head"] = append(qtimes["head"], whole-spent)
	}
	for i, op := range qm.Ops {
		row := int8Ledger(qnames[i], op, qinputs[i])
		us := usOf(quantileDur(qtimes[qnames[i]], 0.5))
		row.finish(us)
		ledger = append(ledger, row)
		m["nn.int8."+qnames[i]+"_us"] = metric{us, "us"}
		if row.Kind == "gemm" {
			m["nn.int8."+qnames[i]+"_gflops"] = metric{row.GFLOPs, "GFLOP/s"}
		}
	}
	hrow := int8Ledger("head", qm.Head, headIn)
	hus := usOf(quantileDur(qtimes["head"], 0.5))
	hrow.finish(hus)
	ledger = append(ledger, hrow)
	m["nn.int8.head_us"] = metric{hus, "us"}
	m["nn.int8.head_gflops"] = metric{hrow.GFLOPs, "GFLOP/s"}

	// tensor: the kernels under conv1 and conv2, both precisions.
	var convs []*nn.Conv2D
	var convIn []*tensor.Tensor
	for i, l := range head.Layers {
		if c, ok := l.(*nn.Conv2D); ok {
			convs = append(convs, c)
			convIn = append(convIn, inputs[i])
		}
	}
	var qconvs []*nn.QConv2D
	var qconvIn [][]uint8
	for i, op := range qm.Ops {
		if c, ok := op.(*nn.QConv2D); ok {
			qconvs = append(qconvs, c)
			qconvIn = append(qconvIn, qinputs[i])
		}
	}
	for k := 0; k < 2 && k < len(convs) && k < len(qconvs); k++ {
		tag := fmt.Sprintf("conv%d", k+1)
		c, x := convs[k], convIn[k]
		oh, ow := c.OutDims()
		colRows, colW := c.InC*c.Spec.KH*c.Spec.KW, oh*ow
		x4 := x.Reshape(1, c.InC, c.InH, c.InW)
		cols := tensor.New(colRows, colW)
		dst := tensor.New(c.Filters, colW)
		im := timeMedian(tr, "tensor.f32.im2col."+tag, -1, reps, func() { tensor.Im2ColBatch(cols, x4, c.InC, c.InH, c.InW, c.Spec) })
		gm := timeMedian(tr, "tensor.f32.gemm."+tag, -1, reps, func() { tensor.MatMul(dst, c.W, cols) })
		m["tensor.f32.im2col_us."+tag] = metric{usOf(im), "us"}
		m["tensor.f32.gemm_us."+tag] = metric{usOf(gm), "us"}

		q, qx := qconvs[k], qconvIn[k]
		qcols := make([]uint8, colRows*colW)
		acc := make([]int32, q.Filters*colW)
		packed := tensor.PackInt8A(q.W, colRows, 1, q.Filters, colRows)
		qim := timeMedian(tr, "tensor.int8.im2col."+tag, -1, reps, func() {
			tensor.Im2ColBatchU8(qcols, qx, 1, q.InC, q.InH, q.InW, q.Spec, q.InQ.Zero)
		})
		qgm := timeMedian(tr, "tensor.int8.gemm."+tag, -1, reps, func() {
			tensor.GemmInt8PackedA(acc, colW, colW, packed, qcols, colW, 1)
		})
		m["tensor.int8.im2col_us."+tag] = metric{usOf(qim), "us"}
		m["tensor.int8.gemm_us."+tag] = metric{usOf(qgm), "us"}
		m["tensor.int8.requant_us."+tag] = metric{m["nn.int8."+tag+"_us"].Value - usOf(qim) - usOf(qgm), "us"}
	}
	return ledger, writeLedgerText(filepath.Join(e.runDir, "roofline.txt"), ledger)
}

// f32Ledger computes a float op's work and bytes at its input x; nil for
// ops without work (flatten).
func f32Ledger(name string, l nn.Layer, x *tensor.Tensor) *ledgerRow {
	n := x.Dim(0)
	const f = 4 // bytes per float32
	switch l := l.(type) {
	case *nn.Conv2D:
		oh, ow := l.OutDims()
		colRows, colW := l.InC*l.Spec.KH*l.Spec.KW, oh*ow
		out := n * l.Filters * colW
		return &ledgerRow{Op: name, Kernel: "f32", Kind: "gemm",
			Shape: fmt.Sprintf("%dx%dx%d -> %dx%dx%d, k%dx%d", l.InC, l.InH, l.InW, l.Filters, oh, ow, l.Spec.KH, l.Spec.KW),
			FLOPs: float64(2 * l.Filters * colRows * colW * n),
			Bytes: f * float64(x.Len()+l.Filters*colRows+l.Filters+out+2*colRows*colW*n)}
	case *nn.MaxPool2D:
		oh, ow := l.OutDims()
		out := n * l.InC * oh * ow
		return &ledgerRow{Op: name, Kernel: "f32", Kind: "elementwise",
			Shape: fmt.Sprintf("%dx%dx%d -> %dx%dx%d", l.InC, l.InH, l.InW, l.InC, oh, ow),
			FLOPs: float64(out * l.Spec.KH * l.Spec.KW),
			Bytes: f * float64(x.Len()+out)}
	case *nn.Dense:
		return &ledgerRow{Op: name, Kernel: "f32", Kind: "gemm",
			Shape: fmt.Sprintf("%d -> %d", l.In, l.Out),
			FLOPs: float64(2 * l.In * l.Out * n),
			Bytes: f * float64(n*l.In+l.In*l.Out+l.Out+n*l.Out)}
	case *nn.ReLU:
		return &ledgerRow{Op: name, Kernel: "f32", Kind: "elementwise",
			Shape: fmt.Sprintf("%d", x.Len()),
			FLOPs: float64(x.Len()),
			Bytes: f * float64(2*x.Len())}
	}
	return nil
}

// int8Ledger computes a quantized op's work and bytes at batch 1.
func int8Ledger(name string, op nn.QOp, x []uint8) ledgerRow {
	switch op := op.(type) {
	case *nn.QConv2D:
		oh, ow := op.Spec.OutDims(op.InH, op.InW)
		colRows, colW := op.InC*op.Spec.KH*op.Spec.KW, oh*ow
		out := op.Filters * colW
		return ledgerRow{Op: name, Kernel: "int8", Kind: "gemm",
			Shape: fmt.Sprintf("%dx%dx%d -> %dx%dx%d, k%dx%d", op.InC, op.InH, op.InW, op.Filters, oh, ow, op.Spec.KH, op.Spec.KW),
			FLOPs: float64(2 * op.Filters * colRows * colW),
			// u8 input, s8 weights, f32 scale+bias and i32 weight sums,
			// u8 columns written and read, i32 accumulators written and
			// read, u8 output.
			Bytes: float64(len(x) + op.Filters*colRows + 12*op.Filters + 2*colRows*colW + 8*out + out)}
	case *nn.QMaxPool2D:
		oh, ow := op.Spec.OutDims(op.InH, op.InW)
		out := op.InC * oh * ow
		return ledgerRow{Op: name, Kernel: "int8", Kind: "elementwise",
			Shape: fmt.Sprintf("%dx%dx%d -> %dx%dx%d", op.InC, op.InH, op.InW, op.InC, oh, ow),
			FLOPs: float64(out * op.Spec.KH * op.Spec.KW),
			Bytes: float64(len(x) + out)}
	case *nn.QDense:
		outBytes := op.Out // u8 activations; the head emits f32 logits
		if name == "head" {
			outBytes = 4 * op.Out
		}
		return ledgerRow{Op: name, Kernel: "int8", Kind: "gemm",
			Shape: fmt.Sprintf("%d -> %d", op.In, op.Out),
			FLOPs: float64(2 * op.In * op.Out),
			Bytes: float64(len(x) + op.In*op.Out + 12*op.Out + 8*op.Out + outBytes)}
	}
	return ledgerRow{Op: name, Kernel: "int8", Kind: "elementwise", Shape: "?"}
}

// writeLedgerText writes the ledger as a table.
func writeLedgerText(path string, rows []ledgerRow) error {
	var b strings.Builder
	b.WriteString("# roofline ledger, batch 1; FLOPs and bytes computed from tensor sizes, time measured\n")
	fmt.Fprintf(&b, "%-6s %-8s %-34s %12s %12s %8s %10s %9s\n", "kernel", "op", "shape", "flops", "bytes", "op/byte", "us", "GFLOP/s")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %-8s %-34s %12.0f %12.0f %8.3f %10.2f %9.3f\n", r.Kernel, r.Op, r.Shape, r.FLOPs, r.Bytes, r.OpPerByte, r.Micros, r.GFLOPs)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
