// Command perfbench is the repository's served benchmark. It builds on
// nothing but the source tree: run.sh compiles planserverd and this
// program, and this program starts planserverd with its default flags
// and drives it from one closed-loop client over one keep-alive
// loopback connection.
//
//	bash perfbench/run.sh --workload plan-cold --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// times the same statements through each layer's public functions
// in-process and reports the per-layer metrics next to the served
// medians. The last line of standard output is the result object; the
// lines before it are the run header and per-class tables. README.md
// defines every workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"orderopt/internal/exec"
	"orderopt/internal/server"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // repository root (source hash, commit)
	server   string // planserverd binary
	out      io.Writer
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's statements are drawn from")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced run")
	flag.StringVar(&cfg.root, "root", ".", "repository root")
	flag.StringVar(&cfg.server, "server", "", "planserverd binary (run.sh builds it)")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.out = os.Stdout
	if cfg.server == "" || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need -server, -trace 0|1 and positive -seconds")
		os.Exit(2)
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// traceChunks is how many times the traced run alternates between
// served and in-process measurement.
const traceChunks = 5

// Cold starts per run: set-up time is their median. The last
// measuredLifetimes of them serve the measured requests, an equal share
// of the run each: a server's garbage collector settles into a pace
// that differs from process to process, and a run that samples one
// process carries all of that difference.
const (
	coldStarts        = 9
	measuredLifetimes = 5
)

// A lifetime during which the host stole more than quietStealPct of the
// CPU time ran on a busy host: steal spells of 5-15% slowed whole runs
// by up to half. Such a lifetime is run again, at most
// maxExtraLifetimes times per run, and the quietest lifetimes are kept.
// Which lifetimes were measured, with their steal, is in the header.
const (
	quietStealPct     = 1.0
	maxExtraLifetimes = 2
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(cfg config) error {
	hdr := newHeader(cfg)
	w, err := buildWorkload(cfg.workload, cfg.seed)
	if err != nil {
		return err
	}
	var ds *exec.Dataset
	refs := map[string]*reference{}
	if w.Path == "/execute" {
		if ds, err = loadDataset(w.Dataset); err != nil {
			return err
		}
		if refs, err = references(w, ds); err != nil {
			return err
		}
		if !cfg.trace {
			ds = nil // only the traced run executes in-process
			runtime.GC()
		}
	}
	probe, err := makeRequest(w, w.Probe, refs)
	if err != nil {
		return err
	}
	rqs := make([]request, len(w.Rotation))
	for i, st := range w.Rotation {
		if rqs[i], err = makeRequest(w, st, refs); err != nil {
			return err
		}
	}

	// One request per class, in class order; none on plan-cold, where a
	// repeated statement would not be cold.
	var first []request
	if !w.Cold {
		for _, c := range w.Classes {
			for _, rq := range rqs {
				if rq.st.Class == c {
					first = append(first, rq)
					break
				}
			}
		}
	}

	// Set-up: cold starts that only answer the probe, then the
	// measured server lifetimes, each of which starts cold too.
	// A lifetime needs a few seconds of requests to sample every class.
	segments, measure := max(1, min(measuredLifetimes, int(cfg.seconds/4))), cfg.seconds
	if cfg.trace {
		segments, measure = 1, cfg.seconds/2 // the other half times the layers in-process
	}
	var setup []float64
	for i := segments; i < coldStarts; i++ {
		s, c, d, err := coldStart(cfg.server, w, probe)
		if err != nil {
			return err
		}
		setup = append(setup, d.Seconds())
		c.close()
		s.stop()
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	l := &loop{w: w, rqs: rqs, keep: cfg.trace && !w.Stream, bodies: map[string][]byte{}}
	var (
		t      *tracer
		health server.HealthResponse
		stats  server.StatsResponse
		lives  []lifetime
	)
	// Lifetimes run until segments of them saw a quiet host, or up to
	// maxExtraLifetimes more; the segments quietest are kept.
	for len(lives) < segments || (quiet(lives) < segments && len(lives) < segments+maxExtraLifetimes && !cfg.trace) {
		s, c, d, err := coldStart(cfg.server, w, probe)
		if err != nil {
			return err
		}
		setup = append(setup, d.Seconds())
		err = c.getJSON("/healthz", &health)
		c.close()
		if err != nil {
			s.stop()
			return err
		}
		hdr.serverInfo(health)
		chunks, between := 1, func() {}
		if cfg.trace {
			// Served and in-process measurement alternate, so that both
			// see the same host: its speed drifts within seconds.
			t = newTracer(w, ds, refs, health.Workers, l.bodies)
			if err := t.loadDatasets(); err != nil {
				s.stop()
				return err
			}
			chunks = traceChunks
			between = func() { t.trace(time.Duration(measure / traceChunks * float64(time.Second))) }
		}
		life, err := l.lifetime(s, first, time.Duration(measure/float64(segments)*float64(time.Second)), chunks, between, &stats)
		if err == nil {
			life.rss, err = s.peakRSSMiB()
		}
		s.stop()
		if err != nil {
			return err
		}
		lives = append(lives, life)
		if n := l.c.dials.Load(); n != 1 {
			res.Correct = false
			hdr.problem(fmt.Sprintf("measured client opened %d connections, want 1", n))
		}
		if w.Cold && stats.Planner.PlanCacheHits != 0 {
			res.Correct = false
			hdr.problem(fmt.Sprintf("%d plan-cache hits on plan-cold, want 0", stats.Planner.PlanCacheHits))
		}
	}
	res.Attempted, res.Failed = l.attempted, l.failed
	if l.failed > 0 {
		res.Correct = false
	}
	hdr.problem(l.errs...)
	sort.SliceStable(lives, func(i, j int) bool { return lives[i].steal < lives[j].steal })
	for _, life := range lives {
		hdr.LifetimeStealPct = append(hdr.LifetimeStealPct, life.steal)
	}
	lives = lives[:segments]
	lat, ttfr := map[string][]float64{}, map[string][]float64{}
	var (
		rss    []float64
		okReqs int
		wall   time.Duration
	)
	for _, life := range lives {
		for c, xs := range life.lat {
			lat[c] = append(lat[c], xs...)
		}
		for c, xs := range life.ttfr {
			ttfr[c] = append(ttfr[c], xs...)
		}
		rss = append(rss, life.rss)
		okReqs += life.ok
		wall += life.wall
	}

	served := w.classes(lat)
	if cfg.trace {
		if t.failed > 0 {
			res.Correct = false
			res.Failed += t.failed
			hdr.problem(t.errs...)
		}
		res.Attempted += t.attempted
		t.report(cfg.out, served, &stats)
		res.Metrics = t.metrics(served, &stats)
	} else {
		ttfr := w.classes(ttfr)
		put := func(name, unit string, v float64, ok bool) {
			res.Metrics[name] = metric{v, unit}
			if !ok {
				hdr.unsupported(name)
			}
		}
		put("throughput_rps", "1/s", float64(okReqs)/wall.Seconds(), true)
		for _, q := range []struct {
			name, unit string
			of         []classSamples
			p          float64
		}{
			{"latency_p50_ms", "ms", served, 0.5},
			{"latency_p90_ms", "ms", served, 0.9},
			{"latency_p99_ms", "ms", served, 0.99},
			{"ttfr_p50_ms", "ms", ttfr, 0.5},
			{"ttfr_p90_ms", "ms", ttfr, 0.9},
		} {
			v, ok := classQuantile(q.of, q.p)
			put(q.name, q.unit, v, ok)
		}
		put("peak_rss_mib", "MiB", median(rss), true)
		put("setup_s", "s", median(setup), true)
		printServed(cfg.out, served, ttfr, setup, rss)
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s has no value (a class without samples?)", name)
		}
	}
	hdr.finish()
	if err := hdr.print(cfg.out); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(cfg.out, "%s\n", line)
	return err
}

// loop drives the server closed-loop through the rotation.
type loop struct {
	w    *workload
	c    *client
	srv  *serverProc
	rqs  []request
	next int
	keep bool // keep the last good body of every statement

	lat, ttfr         map[string][]float64 // per class, ms, this lifetime
	bodies            map[string][]byte
	attempted, failed int
	errs              []string
}

// one sends the next request of the rotation; record keeps its times.
func (l *loop) one(record bool) (bool, error) {
	rq := l.rqs[l.next]
	l.next = (l.next + 1) % len(l.rqs)
	return l.send(rq, record)
}

// send sends rq and checks the reply; record keeps its times.
func (l *loop) send(rq request, record bool) (bool, error) {
	l.attempted++
	r, err := l.c.do(l.w.Path, rq.payload, l.w.Stream)
	if err == nil {
		err = l.w.check(rq, r)
	} else if l.srv.exited() {
		return false, fmt.Errorf("planserverd exited: %v", err)
	}
	if err != nil {
		l.failed++
		if len(l.errs) < 5 {
			l.errs = append(l.errs, err.Error())
		}
		return false, nil
	}
	if record {
		cl := rq.st.Class
		l.lat[cl] = append(l.lat[cl], r.latency.Seconds()*1e3)
		l.ttfr[cl] = append(l.ttfr[cl], r.ttfr.Seconds()*1e3)
	}
	if l.keep {
		l.bodies[rq.st.SQL] = append(l.bodies[rq.st.SQL][:0], r.body...)
	}
	return true, nil
}

// lifetime is one measured server's share of a run.
type lifetime struct {
	lat, ttfr map[string][]float64 // per class, ms
	ok        int                  // requests answered correctly
	wall      time.Duration
	rss       float64 // the server's peak RSS, MiB
	// steal is the share of CPU time the host gave to other guests
	// while the lifetime ran, in percent.
	steal float64
}

// quiet counts the lifetimes that ran while the host stole at most
// quietStealPct of the CPU time.
func quiet(lives []lifetime) int {
	n := 0
	for _, l := range lives {
		if l.steal <= quietStealPct {
			n++
		}
	}
	return n
}

// lifetime drives one cold-started server: warm-up, then d of measured
// requests over a fresh connection in equal chunks, calling between
// after each, then its /stats.
func (l *loop) lifetime(s *serverProc, first []request, d time.Duration, chunks int,
	between func(), stats *server.StatsResponse) (lifetime, error) {
	l.srv, l.c = s, newClient(s.addr)
	defer l.c.close()
	steal0, total0 := readSteal()
	if err := l.warmup(first); err != nil {
		return lifetime{}, err
	}
	l.lat, l.ttfr = map[string][]float64{}, map[string][]float64{}
	life := lifetime{lat: l.lat, ttfr: l.ttfr}
	for i := 0; i < chunks; i++ {
		n, elapsed, err := l.run(d / time.Duration(chunks))
		if err != nil {
			return lifetime{}, err
		}
		life.ok, life.wall = life.ok+n, life.wall+elapsed
		between()
	}
	if steal, total := readSteal(); total > total0 {
		life.steal = 100 * float64(steal-steal0) / float64(total-total0)
	}
	return life, l.c.getJSON("/stats", stats)
}

// warmup sends one request per class in the workload's class order,
// then untimed requests of the rotation until a second has passed, so
// lazy set-up and caches are done before the clock starts. The first
// requests are the same for every seed: the server's steady state
// depends on which statements touch the dataset first. On plan-cold
// the rotation is far longer than the plan cache, so warming up cannot
// make the measured requests hit it.
func (l *loop) warmup(first []request) error {
	begin := time.Now()
	for _, rq := range first {
		if _, err := l.send(rq, false); err != nil {
			return err
		}
	}
	for time.Since(begin) < time.Second {
		if _, err := l.one(false); err != nil {
			return err
		}
	}
	return nil
}

// run measures for d: the requests answered correctly and the wall
// time they took.
func (l *loop) run(d time.Duration) (int, time.Duration, error) {
	begin := time.Now()
	ok := 0
	for time.Since(begin) < d {
		good, err := l.one(true)
		if err != nil {
			return 0, 0, err
		}
		if good {
			ok++
		}
	}
	return ok, time.Since(begin), nil
}

// classes returns per-class samples in the workload's class order.
func (w *workload) classes(of map[string][]float64) []classSamples {
	out := make([]classSamples, 0, len(w.Classes))
	for _, c := range w.Classes {
		out = append(out, classSamples{c, of[c]})
	}
	return out
}

// printServed prints the per-class table of the served run.
func printServed(w io.Writer, lat, ttfr []classSamples, setup, rss []float64) {
	fmt.Fprintf(w, "%-14s %7s %10s %10s %10s %10s %10s\n", "class", "n", "p50_ms", "p90_ms", "p99_ms", "ttfr50_ms", "ttfr90_ms")
	for i, c := range lat {
		s := append([]float64(nil), c.Samples...)
		sort.Float64s(s)
		t := append([]float64(nil), ttfr[i].Samples...)
		sort.Float64s(t)
		p99 := fmt.Sprintf("%10.3f", quantile(s, 0.99))
		if !supported(len(s), 0.99) {
			p99 = fmt.Sprintf("%9.3f*", quantile(s, 0.99))
		}
		fmt.Fprintf(w, "%-14s %7d %10.3f %10.3f %s %10.3f %10.3f\n", c.Class, len(s),
			quantile(s, 0.5), quantile(s, 0.9), p99, quantile(t, 0.5), quantile(t, 0.9))
	}
	fmt.Fprintf(w, "(* fewer than %d samples beyond the percentile)\n", minBeyond)
	fmt.Fprintf(w, "setup_s per cold start: %v\npeak RSS per measured server, MiB: %v\n", setup, rss)
}
