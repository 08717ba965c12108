package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"orderopt/internal/exec"
	"orderopt/internal/optimizer"
	"orderopt/internal/planner"
	"orderopt/internal/query"
	"orderopt/internal/server"
	"orderopt/internal/sqlparse"
	"orderopt/internal/tpcr"
)

// The traced run times the workload's statements in-process through
// each layer's public functions — the calls planserverd makes for a
// request — and records an allocation delta from runtime/metrics
// around each call. Every layer metric is kept per class; the report
// sets each class's served median beside the sum of the layers the
// served request passes through, and the residual is the HTTP,
// admission and decoding overhead.

// layerMetric is one per-layer metric of BENCHMARK.json.
type layerMetric struct {
	name, unit string
}

var layerMetrics = []layerMetric{
	{"sqlparse.parse_us", "us"},
	{"sqlparse.bind_us", "us"},
	{"query.analyze_us", "us"},
	{"optimizer.prepare_us", "us"},
	{"optimizer.nfsm_states", "count"},
	{"optimizer.dfsm_states", "count"},
	{"optimizer.plangen_us", "us"},
	{"optimizer.plangen_simmen_us", "us"},
	{"optimizer.plans_generated", "count"},
	{"optimizer.plans_retained", "count"},
	{"optimizer.alloc_kib", "KiB"},
	{"planner.cached_plan_us", "us"},
	{"planner.plan_cache_hit_ratio", "ratio"},
	{"exec.registry_load_ms", "ms"},
	{"exec.registry_resident_mib", "MiB"},
	{"exec.registry_loads", "count"},
	{"exec.registry_evictions", "count"},
	{"exec.compile_us", "us"},
	{"exec.execute_ms", "ms"},
	{"exec.rows_sorted", "count"},
	{"exec.rows_sorted_oblivious", "count"},
	{"exec.result_rows", "count"},
	{"exec.alloc_mib", "MiB"},
	{"exec.gc_cycles", "count"},
	{"exec.stream_first_chunk_ms", "ms"},
	{"exec.stream_ms", "ms"},
	{"server.encode_ms", "ms"},
	{"server.response_kib", "KiB"},
	{"server.served_p50_ms", "ms"},
	{"server.layer_sum_ms", "ms"},
	{"server.overhead_ms", "ms"},
}

// sumLayers lists, per workload, the layers a served request passes
// through: their medians add up to the in-process part of its latency.
var sumLayers = map[string][]string{
	"plan-cold":     {"sqlparse.parse_us", "sqlparse.bind_us", "query.analyze_us", "optimizer.prepare_us", "optimizer.plangen_us", "server.encode_ms"},
	"exec-report":   {"planner.cached_plan_us", "exec.compile_us", "exec.execute_ms", "server.encode_ms"},
	"stream-export": {"planner.cached_plan_us", "exec.compile_us", "exec.stream_ms"},
}

// registryLoads is how many fresh registries the traced run times the
// dataset load on.
const registryLoads = 3

type tracer struct {
	w       *workload
	ds      *exec.Dataset // what the exec layers run over
	refs    map[string]*reference
	workers int
	bodies  map[string][]byte // last served body per statement
	ctx     context.Context

	pl, simmen, obl *planner.Planner
	warm            map[string]bool // statements planned once on pl

	// class → metric → one value per traced call
	samples map[string]map[string][]float64
	// class → timed metric → allocated bytes per traced call
	allocs map[string]map[string][]float64
	// workload-level values (not per class)
	loadMs []float64
	rounds int

	attempted, failed int
	errs              []string
}

func newTracer(w *workload, ds *exec.Dataset, refs map[string]*reference, workers int, bodies map[string][]byte) *tracer {
	simmen := planner.DefaultConfig(tpcr.Schema())
	simmen.Optimizer = optimizer.DefaultConfig(optimizer.ModeSimmen)
	simmen.Optimizer.MaxDOP = workers
	return &tracer{
		w: w, ds: ds, refs: refs, workers: workers, bodies: bodies, ctx: context.Background(),
		pl: servedPlanner(workers), simmen: planner.New(simmen), obl: obliviousPlanner(),
		warm:    map[string]bool{},
		samples: map[string]map[string][]float64{},
		allocs:  map[string]map[string][]float64{},
	}
}

var allocSamples = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}

func readAlloc() (bytes, cycles uint64) {
	metrics.Read(allocSamples)
	return allocSamples[0].Value.Uint64(), allocSamples[1].Value.Uint64()
}

func (t *tracer) add(class, name string, v float64) {
	m := t.samples[class]
	if m == nil {
		m = map[string][]float64{}
		t.samples[class] = m
	}
	m[name] = append(m[name], v)
}

// timed runs f as one call of the named layer, recording its duration
// in the metric's unit and the bytes it allocated. It returns the
// allocated bytes and completed GC cycles.
func (t *tracer) timed(class, name string, f func() error) (alloc float64, gcs float64, err error) {
	a0, g0 := readAlloc()
	begin := time.Now()
	err = f()
	d := time.Since(begin)
	a1, g1 := readAlloc()
	if err != nil {
		return 0, 0, fmt.Errorf("%s: %s: %w", class, name, err)
	}
	t.add(class, name, inUnit(d, name))
	m := t.allocs[class]
	if m == nil {
		m = map[string][]float64{}
		t.allocs[class] = m
	}
	alloc = float64(a1 - a0)
	m[name] = append(m[name], alloc)
	return alloc, float64(g1 - g0), nil
}

func inUnit(d time.Duration, name string) float64 {
	if strings.HasSuffix(name, "_us") {
		return d.Seconds() * 1e6
	}
	return d.Seconds() * 1e3
}

func (t *tracer) fail(err error) {
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, err.Error())
	}
}

// loadDatasets times the dataset load on fresh registries; plan-cold,
// which never executes when served, gets the small tier so that the
// executor's layers are timed on its statements too.
func (t *tracer) loadDatasets() error {
	name := t.w.Dataset
	if t.ds == nil {
		name = "tpcr-small"
	}
	for i := 0; i < registryLoads; i++ {
		begin := time.Now()
		ds, err := loadDataset(name)
		if err != nil {
			return err
		}
		t.loadMs = append(t.loadMs, time.Since(begin).Seconds()*1e3)
		if t.ds == nil {
			t.ds = ds
		}
	}
	runtime.GC()
	return nil
}

// trace cycles the workload's statements through the layers for d, and
// for one round at least. A round traces every class once; plan-cold's
// one class has many statements, taken in rotation order.
func (t *tracer) trace(d time.Duration) {
	begin := time.Now()
	for {
		sts := make([]statement, 0, len(t.w.Classes))
		if t.w.Cold {
			sts = append(sts, t.w.Rotation[t.rounds%len(t.w.Rotation)])
		} else {
			for _, c := range t.w.Classes {
				sts = append(sts, reportStatement(c))
			}
		}
		for _, st := range sts {
			t.attempted++
			if err := t.statement(st, !t.w.Cold || t.rounds%planColdFullEvery == 0); err != nil {
				t.fail(err)
			}
		}
		t.rounds++
		if time.Since(begin) >= d {
			return
		}
	}
}

// planColdFullEvery: on plan-cold, the Simmen baseline and the executor
// layers — an order of magnitude slower than planning a statement, and
// outside its served path — are traced on every fourth statement, so
// the layers that are on the path see four times as many statements.
const planColdFullEvery = 4

// statement traces one statement through the planning layers and the
// encoding of its served reply; full adds the Simmen baseline and the
// executor's layers.
func (t *tracer) statement(st statement, full bool) error {
	if err := t.planLayers(st); err != nil {
		return err
	}
	if !t.w.Stream {
		if err := t.encodeServed(st); err != nil {
			return err
		}
	}
	if !full {
		return nil
	}
	if err := t.simmenLayer(st); err != nil {
		return err
	}
	ref := t.refs[st.SQL]
	if ref == nil {
		var err error
		if ref, err = computeReference(t.obl, t.ds, st.SQL); err != nil {
			return fmt.Errorf("%s: reference: %w", st.Class, err)
		}
	}
	t.add(st.Class, "exec.rows_sorted_oblivious", float64(ref.RowsSorted))
	return t.execLayers(st, ref)
}

// planLayers plans st from scratch, phase by phase, as a cold /plan
// request does.
func (t *tracer) planLayers(st statement) error {
	cfg := t.pl.Config()
	var (
		stmt *sqlparse.SelectStmt
		bq   *sqlparse.BoundQuery
		a    *query.Analysis
		prep *optimizer.Prepared
		res  *optimizer.Result
		err  error
	)
	cl := st.Class
	if _, _, err = t.timed(cl, "sqlparse.parse_us", func() error { stmt, err = sqlparse.Parse(st.SQL); return err }); err != nil {
		return err
	}
	if _, _, err = t.timed(cl, "sqlparse.bind_us", func() error { bq, err = sqlparse.Bind(stmt, cfg.Catalog); return err }); err != nil {
		return err
	}
	if _, _, err = t.timed(cl, "query.analyze_us", func() error { a, err = query.Analyze(bq.Graph, cfg.Analyze); return err }); err != nil {
		return err
	}
	if _, _, err = t.timed(cl, "optimizer.prepare_us", func() error { prep, err = optimizer.Prepare(a, cfg.Optimizer); return err }); err != nil {
		return err
	}
	if s := prep.Stats(); s != nil {
		t.add(cl, "optimizer.nfsm_states", float64(s.NFSMStates))
		t.add(cl, "optimizer.dfsm_states", float64(s.DFSMStates))
	}
	alloc, _, err := t.timed(cl, "optimizer.plangen_us", func() error { res, err = prep.Run(); return err })
	if err != nil {
		return err
	}
	t.add(cl, "optimizer.alloc_kib", alloc/1024)
	t.add(cl, "optimizer.plans_generated", float64(res.PlansGenerated))
	t.add(cl, "optimizer.plans_retained", float64(res.PlansRetained))

	return nil
}

// simmenLayer prepares st in ModeSimmen, the paper's baseline, and
// times its plan generation.
func (t *tracer) simmenLayer(st statement) error {
	cfg := t.simmen.Config()
	stmt, err := sqlparse.Parse(st.SQL)
	if err != nil {
		return err
	}
	bq, err := sqlparse.Bind(stmt, cfg.Catalog)
	if err != nil {
		return err
	}
	a, err := query.Analyze(bq.Graph, cfg.Analyze)
	if err != nil {
		return err
	}
	prep, err := optimizer.Prepare(a, cfg.Optimizer)
	if err != nil {
		return err
	}
	_, _, err = t.timed(st.Class, "optimizer.plangen_simmen_us", func() error { _, err = prep.Run(); return err })
	return err
}

// execLayers runs st as a served /execute request does: plan through
// the warm planner's caches, compile, execute — and compiles it again
// to stream it into NDJSON frames.
func (t *tracer) execLayers(st statement, ref *reference) error {
	cl := st.Class
	if !t.warm[st.SQL] {
		if _, err := t.pl.Plan(st.SQL); err != nil {
			return err
		}
		t.warm[st.SQL] = true
	}
	var (
		pd   planner.Planned
		q    *planner.PreparedQuery
		pipe *exec.Pipeline
		rows []exec.Row
		err  error
	)
	if _, _, err = t.timed(cl, "planner.cached_plan_us", func() error { pd, q, err = t.pl.PlanQueryContext(t.ctx, st.SQL); return err }); err != nil {
		return err
	}
	if pd.Source != planner.SourceCacheHit {
		return fmt.Errorf("%s: warm plan came from %s, want cachehit", cl, pd.Source)
	}
	org := origin(pd, q)
	runner := t.ds.Runner(org.Analysis())
	runner.Accountant = exec.NewAccountant(0)
	runner.MaxDOP = t.workers
	if _, _, err = t.timed(cl, "exec.compile_us", func() error { pipe, err = runner.Compile(pd.Best); return err }); err != nil {
		return err
	}
	alloc, gcs, err := t.timed(cl, "exec.execute_ms", func() error { rows, err = pipe.ExecuteContext(t.ctx); return err })
	if err != nil {
		return err
	}
	t.add(cl, "exec.alloc_mib", alloc/(1<<20))
	t.add(cl, "exec.gc_cycles", gcs)
	t.add(cl, "exec.rows_sorted", float64(pipe.RowsSorted()))
	t.add(cl, "exec.result_rows", float64(len(rows)))
	if int64(len(rows)) != ref.RowCount {
		return fmt.Errorf("%s: %d rows in-process, reference %d", cl, len(rows), ref.RowCount)
	}

	if pipe, err = runner.Compile(pd.Best); err != nil {
		return err
	}
	var (
		out      countWriter
		enc      = json.NewEncoder(&out)
		frame    = &server.StreamRows{Frame: server.FrameRows}
		first    time.Duration
		encoding time.Duration
		streamed int64
	)
	begin := time.Now()
	if _, _, err = t.timed(cl, "exec.stream_ms", func() error {
		return pipe.StreamContext(t.ctx, exec.DefaultStreamChunk, func(rows []exec.Row) error {
			if first == 0 {
				first = time.Since(begin)
			}
			frame.Rows = frame.Rows[:0]
			for _, r := range rows {
				frame.Rows = append(frame.Rows, r)
			}
			e := time.Now()
			err := enc.Encode(frame)
			encoding += time.Since(e)
			streamed += int64(len(rows))
			return err
		})
	}); err != nil {
		return err
	}
	if first == 0 {
		first = time.Since(begin)
	}
	t.add(cl, "exec.stream_first_chunk_ms", first.Seconds()*1e3)
	if streamed != ref.RowCount {
		return fmt.Errorf("%s: %d rows streamed in-process, reference %d", cl, streamed, ref.RowCount)
	}
	if t.w.Stream {
		t.add(cl, "server.encode_ms", encoding.Seconds()*1e3)
		t.add(cl, "server.response_kib", float64(out.n)/1024)
	}
	return nil
}

// encodeServed re-encodes the reply the server last sent for st the
// way the server writes a buffered reply (indented JSON).
func (t *tracer) encodeServed(st statement) error {
	body, ok := t.bodies[st.SQL]
	if !ok {
		return nil // not served in this run: nothing to re-encode
	}
	var v any = &server.ExecuteResponse{}
	if t.w.Path == "/plan" {
		v = &server.PlanResponse{}
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("%s: decoding served reply: %w", st.Class, err)
	}
	var out countWriter
	if _, _, err := t.timed(st.Class, "server.encode_ms", func() error {
		enc := json.NewEncoder(&out)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	}); err != nil {
		return err
	}
	t.add(st.Class, "server.response_kib", float64(out.n)/1024)
	return nil
}

type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// classMedian is the median of one class's values of a metric (NaN if
// the class has none).
func (t *tracer) classMedian(class, name string) float64 {
	return median(t.samples[class][name])
}

// layerSum adds up, in ms, the medians of the layers a served request
// of the class passes through.
func (t *tracer) layerSum(class string) float64 {
	var sum float64
	for _, name := range sumLayers[t.w.Name] {
		v := t.classMedian(class, name)
		if strings.HasSuffix(name, "_us") {
			v /= 1e3
		}
		sum += v
	}
	return sum
}

// workloadLevel returns the metrics that belong to the run rather than
// to a class: the dataset load and the server's own counters.
func (t *tracer) workloadLevel(stats *server.StatsResponse) map[string]float64 {
	m := map[string]float64{"exec.registry_load_ms": median(t.loadMs)}
	if p := stats.Planner; p.PlanCalls > 0 {
		m["planner.plan_cache_hit_ratio"] = float64(p.PlanCacheHits) / float64(p.PlanCalls)
	}
	if r := stats.Registry; r != nil {
		m["exec.registry_resident_mib"] = float64(r.ResidentBytes) / (1 << 20)
		m["exec.registry_loads"] = float64(r.Loads)
		m["exec.registry_evictions"] = float64(r.Evictions)
	}
	return m
}

// metrics combines every per-layer metric across classes: timings by
// geometric mean, like the end-to-end latencies; counts, sizes and the
// overhead residual (which may be negative) by arithmetic mean.
func (t *tracer) metrics(served []classSamples, stats *server.StatsResponse) map[string]metric {
	level := t.workloadLevel(stats)
	out := map[string]metric{}
	for _, lm := range layerMetrics {
		if v, ok := level[lm.name]; ok {
			out[lm.name] = metric{v, lm.unit}
			continue
		}
		var vals []float64
		for _, c := range served {
			var v float64
			switch lm.name {
			case "server.served_p50_ms":
				v = median(c.Samples)
			case "server.layer_sum_ms":
				v = t.layerSum(c.Class)
			case "server.overhead_ms":
				v = median(c.Samples) - t.layerSum(c.Class)
			default:
				v = t.classMedian(c.Class, lm.name)
			}
			vals = append(vals, v)
		}
		v := mean(vals)
		if lm.unit == "us" || lm.unit == "ms" {
			if g := geoMean(vals); !math.IsNaN(g) { // every class positive
				v = g
			}
		}
		out[lm.name] = metric{v, lm.unit}
	}
	return out
}

// report prints, per class, every layer's median and allocation per
// call, then the served median beside the sum of its layers.
func (t *tracer) report(w io.Writer, served []classSamples, stats *server.StatsResponse) {
	level := t.workloadLevel(stats)
	names := make([]string, 0, len(level))
	for n := range level {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-34s %12.4f\n", n, level[n])
	}
	for _, c := range served {
		fmt.Fprintf(w, "class %s (%d traced calls)\n", c.Class, len(t.samples[c.Class]["sqlparse.parse_us"]))
		for _, lm := range layerMetrics {
			vals, ok := t.samples[c.Class][lm.name]
			if !ok {
				continue
			}
			line := fmt.Sprintf("  %-32s %12.4f %-5s", lm.name, median(vals), lm.unit)
			if a, ok := t.allocs[c.Class][lm.name]; ok {
				line += fmt.Sprintf(" alloc %10.1f KiB/call", mean(a)/1024)
			}
			fmt.Fprintln(w, line)
		}
		sum := t.layerSum(c.Class)
		fmt.Fprintf(w, "  served p50 %.4f ms = layers %.4f ms (%s) + overhead %.4f ms\n",
			median(c.Samples), sum, strings.Join(sumLayers[t.w.Name], " + "), median(c.Samples)-sum)
	}
}
