// Command perfbench is the repository benchmark: single-process
// closed-loop workloads (one client goroutine) over the unified query
// system, with every answer checked. See README.md.
//
//	perfbench --workload ask-large --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics from an untraced run; --trace 1 reports per-layer
// metrics from a traced run and writes its spans under .bench_build.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/core"
)

// setupBuilds is how many times a run builds the system; setup_s is
// the median, since a single build varies far more than the median.
const setupBuilds = 7

// warmFor is how long the warm-up repeats its ops before the timed
// loop, so the heap, the collector's pacing and the caches settle.
const warmFor = 2 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload   string
	seed       int64
	seconds    int
	trace      bool
	cpuprofile string
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: ask-large, sql-scan or ingest-ask")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the inputs are generated from")
	flag.IntVar(&cfg.seconds, "seconds", 25, "seconds the timed loop runs, in whole episodes")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.StringVar(&cfg.cpuprofile, "cpuprofile", "", "write a CPU profile of the timed loop to this file")
	flag.Parse()
	cfg.trace = trace == 1
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func run(cfg config) (*result, error) {
	var wl *workloadDef
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	in, err := wl.prepare(cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("%s: inputs: %w", wl.name, err)
	}
	if in.block < 1 || len(in.ops)%in.block != 0 {
		return nil, fmt.Errorf("%s: an episode of %d ops is not whole blocks of %d", wl.name, len(in.ops), in.block)
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}

	h, setup, err := setUp(in, res)
	if err != nil {
		return nil, err
	}
	lr, err := loop(h, in, time.Duration(cfg.seconds)*time.Second, cfg.cpuprofile, res)
	if err != nil {
		return nil, err
	}
	h = lr.h
	reads := append(append([]float64(nil), lr.lat[opAsk]...), lr.lat[opSQL]...)
	sort.Float64s(reads)
	if len(reads) == 0 {
		return nil, fmt.Errorf("%s: no read operations", wl.name)
	}
	lr.printClasses(in.classes)

	if !cfg.trace {
		res.Metrics["ops_per_s"] = metric{lr.blockRate(), "1/s"}
		res.Metrics["read_p50_ms"] = metric{reportedPercentile("read_p50_ms", reads, 50), "ms"}
		res.Metrics["read_p99_ms"] = metric{reportedPercentile("read_p99_ms", reads, 99), "ms"}
		res.Metrics["setup_s"] = metric{setup, "s"}
		res.Metrics["heap_mb"] = metric{lr.heapMB, "MB"}
	} else if err := traced(wl.name, cfg.seed, in, lr, res); err != nil {
		return nil, err
	}
	if in.verify != nil {
		attempted, failed, err := in.verify(h)
		if err != nil {
			return nil, fmt.Errorf("%s: verify: %w", wl.name, err)
		}
		fmt.Fprintf(os.Stderr, "verify: incremental ≡ rebuild on %d gold questions, %d differ\n", attempted, failed)
		res.Attempted += attempted
		res.Failed += failed
	}
	res.Correct = res.Correct && res.Failed == 0
	return res, nil
}

// setUp builds the system setupBuilds times and returns the last build,
// warmed, and the median build time in seconds.
func setUp(in *inputs, res *result) (*core.Hybrid, float64, error) {
	var h *core.Hybrid
	times := make([]float64, 0, setupBuilds)
	for i := 0; i < setupBuilds; i++ {
		h = nil
		runtime.GC() // every build starts from the same heap
		start := time.Now()
		var err error
		h, err = in.build()
		if err != nil {
			return nil, 0, fmt.Errorf("build: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	fmt.Fprintf(os.Stderr, "setup: %d builds, seconds %.4f\n", setupBuilds, times)
	warm(h, in, res)
	return h, median(times), nil
}

// warm runs the warm-up ops, untimed, in passes until warmFor has
// passed. The ops only read, so the state the loop starts from does
// not depend on how many passes ran.
func warm(h *core.Hybrid, in *inputs, res *result) {
	for start := time.Now(); time.Since(start) < warmFor; {
		warmOnce(h, in, res)
	}
}

// warmOnce runs the warm-up ops once, untimed, checking each.
func warmOnce(h *core.Hybrid, in *inputs, res *result) {
	for i := range in.warm {
		res.Attempted++
		if !check(&in.warm[i], do(h, &in.warm[i])) {
			res.Failed++
		}
	}
}

// nextSystem returns the system episode ep runs on: h itself, or for a
// fresh-state workload after the first episode a newly built and
// once-warmed system.
func nextSystem(h *core.Hybrid, in *inputs, ep int, res *result) (*core.Hybrid, error) {
	if ep == 0 || !in.fresh {
		return h, nil
	}
	h, err := in.build()
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	warmOnce(h, in, res)
	return h, nil
}

// outcome is what an op returned.
type outcome struct {
	ans core.Answer
	qr  core.QueryResult
	err error
}

func do(h *core.Hybrid, o *op) outcome {
	switch o.kind {
	case opAsk:
		return outcome{ans: h.Answer(o.text)}
	case opSQL:
		qr, err := h.Query(o.text)
		return outcome{qr: qr, err: err}
	default:
		return outcome{err: h.Ingest(ingestSource, o.id, o.text)}
	}
}

func check(o *op, out outcome) bool {
	switch o.kind {
	case opAsk:
		return out.ans.Err == nil && out.ans.Text == o.want
	case opSQL:
		return out.err == nil && rowsEqual(out.qr.Table, o.rows)
	default:
		return out.err == nil
	}
}

// loopResult is what the untraced closed loop measured.
type loopResult struct {
	h        *core.Hybrid  // the system the last episode ran on
	episodes int           // whole episodes run
	wall     time.Duration // timed time: the blocks, not the builds between episodes
	ops      int
	lat      [3][]float64 // ms per op kind, in op order
	byClass  [][]float64  // ms per op class
	blocks   []float64    // ops per second of each block of in.block ops
	evidence int64        // evidence items over all asks
	heapMB   float64      // live heap after the loop and a forced GC

	allocBytes, mallocs  uint64
	gcCPU, totalCPU      float64
	planHits, planMisses int64
	nodes, edges         int // graph size of the last episode's system
}

func (lr *loopResult) opsPerSecond() float64 { return float64(lr.ops) / lr.wall.Seconds() }

// blockRate is the median of the block rates: every block holds the
// same mix, and the median leaves out blocks a burst of host load slowed.
func (lr *loopResult) blockRate() float64 { return median(lr.blocks) }

// loop runs the timed closed loop: one goroutine, each op sent when
// the previous one returns. It runs in.ops in whole episodes until the
// timed part reaches dur. Counters cover the episodes only, not the
// builds and warm-up between them.
func loop(h *core.Hybrid, in *inputs, dur time.Duration, cpuprofile string, res *result) (*loopResult, error) {
	lr := &loopResult{byClass: make([][]float64, len(in.classes))}
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
		defer pprof.StopCPUProfile()
	}
	cpu := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	failed := 0
	for ep := 0; lr.wall < dur; ep++ {
		var err error
		if h, err = nextSystem(h, in, ep, res); err != nil {
			return nil, err
		}
		hits0, misses0, _ := h.Federation().PlanCacheStats()
		runtime.ReadMemStats(&ms0)
		rtmetrics.Read(cpu)
		gc0, total0 := cpu[0].Value.Float64(), cpu[1].Value.Float64()

		blockStart := time.Now()
		for i := range in.ops {
			o := &in.ops[i]
			start := time.Now()
			out := do(h, o)
			end := time.Now()
			d := ms(end.Sub(start))
			if !check(o, out) {
				failed++
			}
			lr.lat[o.kind] = append(lr.lat[o.kind], d)
			lr.byClass[o.class] = append(lr.byClass[o.class], d)
			lr.evidence += int64(len(out.ans.Evidence))
			if (i+1)%in.block == 0 {
				lr.blocks = append(lr.blocks, float64(in.block)/end.Sub(blockStart).Seconds())
				lr.wall += end.Sub(blockStart)
				blockStart = end
			}
		}

		rtmetrics.Read(cpu)
		runtime.ReadMemStats(&ms1)
		lr.gcCPU += cpu[0].Value.Float64() - gc0
		lr.totalCPU += cpu[1].Value.Float64() - total0
		lr.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		lr.mallocs += ms1.Mallocs - ms0.Mallocs
		hits1, misses1, _ := h.Federation().PlanCacheStats()
		lr.planHits += hits1 - hits0
		lr.planMisses += misses1 - misses0
		lr.ops += len(in.ops)
		lr.episodes++
	}
	fmt.Fprintf(os.Stderr, "rate: %d episodes, %d blocks of %d ops, median %.2f/s, whole loop %.2f/s\n",
		lr.episodes, len(lr.blocks), in.block, lr.blockRate(), lr.opsPerSecond())
	st, _ := h.Stats()
	lr.nodes, lr.edges = st.Nodes, st.Edges
	lr.h = h

	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	lr.heapMB = float64(live.HeapAlloc) / (1 << 20)
	runtime.KeepAlive(h)

	res.Attempted += lr.ops
	res.Failed += failed
	return lr, nil
}

// printClasses writes per-class latency to standard error, the view
// used to pick each workload's mix.
func (lr *loopResult) printClasses(names []string) {
	for c, lat := range lr.byClass {
		if len(lat) == 0 {
			continue
		}
		s := append([]float64(nil), lat...)
		sort.Float64s(s)
		fmt.Fprintf(os.Stderr, "class %-14s n=%-6d p10=%.3f p50=%.3f p90=%.3f ms\n",
			names[c], len(s), percentile(s, 10), percentile(s, 50), percentile(s, 90))
	}
}

// reportedPercentile returns the q-th percentile after the mode check,
// warning when fewer than ten samples lie beyond it.
func reportedPercentile(name string, sorted []float64, q float64) float64 {
	if !reportable(len(sorted), q) {
		fmt.Fprintf(os.Stderr, "warning: %s from %d samples has fewer than ten beyond it; raise --seconds\n", name, len(sorted))
	}
	modeCheck(os.Stderr, name, sorted, q)
	return percentile(sorted, q)
}

// traced builds a fresh system, runs the same episodes as the untraced
// loop with each op's stages replayed under spans, and reports the
// per-layer metrics. The untraced loop lr supplies the counters that
// tracing would disturb (plan cache, allocation, GC) and the untraced
// rate for the overhead.
func traced(name string, seed int64, in *inputs, lr *loopResult, res *result) error {
	h, err := in.build()
	if err != nil {
		return fmt.Errorf("build: %w", err)
	}
	warmRes := &result{}
	warm(h, in, warmRes)
	tr := newTracer(len(in.ops) * lr.episodes * 12)
	rp := newReplayer(h, in.ner, tr)
	var opTime [3]time.Duration
	var opCount [3]int
	var wall time.Duration
	n, failed := 0, 0 // n numbers the ops across episodes
	for ep := 0; ep < lr.episodes; ep++ {
		if h, err = nextSystem(h, in, ep, warmRes); err != nil {
			return err
		}
		if rp.h != h {
			next := newReplayer(h, in.ner, tr)
			next.evidence, next.rowsScanned = rp.evidence, rp.rowsScanned
			rp = next
		}
		begin := time.Now()
		for i := range in.ops {
			o := &in.ops[i]
			t := tr.now()
			out := do(h, o)
			tr.record(lOp, n, t)
			opTime[o.kind] += time.Duration(tr.spans[len(tr.spans)-1].end - t)
			opCount[o.kind]++
			if !check(o, out) {
				failed++
			}
			switch o.kind {
			case opAsk:
				rp.ask(n, o.text, out.ans.Text)
			case opSQL:
				rp.query(n, o.text)
			default:
				rp.ingest(n, o.id, o.text)
			}
			n++
		}
		wall += time.Since(begin)
	}
	res.Attempted += n + warmRes.Attempted
	res.Failed += failed + warmRes.Failed

	// Exact counters must agree between the two systems, which saw the
	// same inputs.
	st, _ := h.Stats()
	if st.Nodes != lr.nodes || st.Edges != lr.edges || rp.evidence != lr.evidence {
		fmt.Fprintf(os.Stderr, "exact counters differ between the untraced and traced systems: nodes %d/%d edges %d/%d evidence %d/%d\n",
			lr.nodes, st.Nodes, lr.edges, st.Edges, lr.evidence, rp.evidence)
		res.Correct = false
	}

	lt := summarize(tr.spans)
	var totalOp time.Duration
	for _, d := range opTime {
		totalOp += d
	}
	overhead := (float64(n) / wall.Seconds()) / lr.opsPerSecond()
	writeReport(os.Stderr, name, lt, totalOp, overhead)
	path := fmt.Sprintf(".bench_build/traces/%s-seed%d.tsv", name, seed)
	if err := writeSpans(path, tr.spans); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "spans: %d written to %s\n", len(tr.spans), path)

	m := res.Metrics
	meanOf := func(l layer, unit time.Duration) float64 {
		if lt.calls[l] == 0 {
			return 0
		}
		return float64(lt.total[l]) / float64(lt.calls[l]) / float64(unit)
	}
	perOp := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return ms(d) / float64(n)
	}
	m["core.ask_ms"] = metric{perOp(opTime[opAsk], opCount[opAsk]), "ms"}
	m["core.sql_ms"] = metric{perOp(opTime[opSQL], opCount[opSQL]), "ms"}
	m["core.ingest_ms"] = metric{perOp(opTime[opIngest], opCount[opIngest]), "ms"}
	m["core.other_ms"] = metric{perOp(lt.other, n), "ms"}
	m["retrieval.retrieve_ms"] = metric{meanOf(lRetrieve, time.Millisecond), "ms"}
	m["retrieval.refresh_ms"] = metric{meanOf(lRefresh, time.Millisecond), "ms"}
	m["semop.parse_us"] = metric{meanOf(lParse, time.Microsecond), "us"}
	m["semop.bind_us"] = metric{meanOf(lBind, time.Microsecond), "us"}
	m["semop.compile_us"] = metric{meanOf(lCompile, time.Microsecond), "us"}
	m["logical.optimize_us"] = metric{meanOf(lOptimize, time.Microsecond), "us"}
	m["sql.parse_compile_us"] = metric{meanOf(lSQLCompile, time.Microsecond), "us"}
	m["federate.execute_ms"] = metric{meanOf(lExecute, time.Millisecond), "ms"}
	m["federate.explain_us"] = metric{meanOf(lExplain, time.Microsecond), "us"}
	m["federate.binding_catalog_ms"] = metric{meanOf(lBindingCatalog, time.Millisecond), "ms"}
	m["slm.candidates_us"] = metric{meanOf(lCandidates, time.Microsecond), "us"}
	m["entropy.assess_us"] = metric{meanOf(lAssess, time.Microsecond), "us"}
	m["extract.extract_doc_us"] = metric{meanOf(lExtract, time.Microsecond), "us"}
	m["trace.overhead_ratio"] = metric{overhead, "ratio"}

	// Exact counts.
	asks, reads := opCount[opAsk], opCount[opAsk]+opCount[opSQL]
	m["retrieval.evidence_per_ask"] = metric{ratio(float64(rp.evidence), asks), "count"}
	m["federate.rows_scanned_per_op"] = metric{ratio(float64(rp.rowsScanned), reads), "count"}
	m["federate.plan_cache_hits_per_op"] = metric{float64(lr.planHits) / float64(lr.ops), "count"}
	m["federate.plan_cache_misses_per_op"] = metric{float64(lr.planMisses) / float64(lr.ops), "count"}
	m["federate.plan_cache_hit_ratio"] = metric{ratio(float64(lr.planHits), int(lr.planHits+lr.planMisses)), "ratio"}
	m["graph.nodes"] = metric{float64(lr.nodes), "count"}
	m["graph.edges"] = metric{float64(lr.edges), "count"}

	// From the untraced loop.
	m["runtime.alloc_kb_per_op"] = metric{float64(lr.allocBytes) / 1024 / float64(lr.ops), "KiB"}
	m["runtime.mallocs_per_op"] = metric{float64(lr.mallocs) / float64(lr.ops), "count"}
	m["runtime.gc_cpu_fraction"] = metric{lr.gcCPU / lr.totalCPU, "ratio"}
	ingests := append([]float64(nil), lr.lat[opIngest]...)
	sort.Float64s(ingests)
	var p50, p90 float64
	if len(ingests) > 0 {
		p50 = reportedPercentile("ingest_p50_ms", ingests, 50)
		p90 = reportedPercentile("ingest_p90_ms", ingests, 90)
	}
	m["core.ingest_p50_ms"] = metric{p50, "ms"}
	m["core.ingest_p90_ms"] = metric{p90, "ms"}
	runtime.KeepAlive(h)
	return nil
}

func ratio(num float64, den int) float64 {
	if den == 0 {
		return 0
	}
	return num / float64(den)
}
