package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/entropy"
	"repro/internal/extract"
	"repro/internal/federate"
	"repro/internal/logical"
	"repro/internal/retrieval"
	"repro/internal/semop"
	"repro/internal/slm"
	"repro/internal/sql"
)

// layer names a span: the operation itself, or one stage of it.
type layer uint8

const (
	lOp layer = iota // the public entry point call; the root of an op's spans
	lRetrieve
	lParse
	lBind
	lCompile
	lOptimize
	lSQLCompile
	lExecute
	lExplain
	lCandidates
	lAssess
	lBindingCatalog
	lRefresh
	lExtract
	nLayers
)

var layerNames = [nLayers]string{
	lOp:             "op",
	lRetrieve:       "retrieval.retrieve",
	lParse:          "semop.parse",
	lBind:           "semop.bind",
	lCompile:        "semop.compile",
	lOptimize:       "logical.optimize",
	lSQLCompile:     "sql.parse_compile",
	lExecute:        "federate.execute",
	lExplain:        "federate.explain",
	lCandidates:     "slm.candidates",
	lAssess:         "entropy.assess",
	lBindingCatalog: "federate.binding_catalog",
	lRefresh:        "retrieval.refresh",
	lExtract:        "extract.extract_doc",
}

// span is one timed call. Stage spans of an op share its index and
// name the op span as their cause. Times are nanoseconds since the
// tracer's base.
type span struct {
	layer      layer
	op         int32
	start, end int64
}

// tracer keeps spans in memory; nothing is formatted until the run
// ends.
type tracer struct {
	base  time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) record(l layer, op int, start int64) {
	t.spans = append(t.spans, span{layer: l, op: int32(op), start: start, end: t.now()})
}

// replayer re-runs an operation's stages, in the order the system runs
// them, through the exported functions of each layer, with a span
// around each call. It reaches the layers through the system's own
// accessors and a recognizer, generator and clusterer configured as
// the system configures its own.
type replayer struct {
	h         *core.Hybrid
	ner       *slm.NER
	opts      core.HybridOptions
	gen       *slm.Generator
	clusterer *entropy.Clusterer
	extractor *extract.Engine
	rng       *slm.RNG
	tr        *tracer

	evidence, rowsScanned int64 // exact work counters
}

func newReplayer(h *core.Hybrid, ner *slm.NER, tr *tracer) *replayer {
	opts := core.DefaultHybridOptions()
	return &replayer{
		h: h, ner: ner, opts: opts, tr: tr,
		gen:       slm.NewGenerator(),
		clusterer: entropy.NewClusterer(slm.NewEmbedder(slm.DefaultEmbeddingDim)),
		extractor: extract.NewEngine(ner, extract.Rules()...),
		rng:       slm.NewRNG(opts.Seed),
	}
}

// ask replays Hybrid.Answer: retrieve, parse, bind (falling back to
// the federated schema surface), compile, optimize, execute, explain,
// then candidate derivation and uncertainty sampling. Synthesis has no
// exported entry point; it stays in the op's remainder.
func (r *replayer) ask(i int, question, answer string) {
	tr := r.tr
	t := tr.now()
	ev := r.h.Retriever().Retrieve(question, r.opts.EvidenceK)
	tr.record(lRetrieve, i, t)
	r.evidence += int64(len(ev))

	t = tr.now()
	q := semop.Parse(question, r.ner)
	tr.record(lParse, i, t)

	t = tr.now()
	fed := r.h.Federation()
	statsCat := r.h.Catalog()
	plan, err := semop.Bind(q, statsCat)
	if errors.Is(err, semop.ErrNoBinding) {
		if fedPlan, fedErr := semop.Bind(q, fed.BindingCatalog()); fedErr == nil {
			plan, err, statsCat = fedPlan, nil, fed.BindingCatalog()
		}
	}
	tr.record(lBind, i, t)
	if err == nil {
		t = tr.now()
		node := semop.Compile(plan)
		tr.record(lCompile, i, t)
		t = tr.now()
		opt := logical.Optimize(node, logical.CatalogStats(statsCat))
		tr.record(lOptimize, i, t)
		r.execute(i, opt)
	}

	t = tr.now()
	cands := slm.DeriveCandidates(question, retrieval.Texts(ev), r.ner)
	if len(cands) > 3 {
		cands = cands[:3]
	}
	if answer != "" {
		boosted := []slm.Candidate{{Text: answer, Weight: 3}}
		for _, c := range cands {
			if c.Text != answer {
				boosted = append(boosted, slm.Candidate{Text: c.Text, Weight: c.Weight * 0.5})
			}
		}
		cands = boosted
	}
	tr.record(lCandidates, i, t)
	if len(cands) > 0 {
		t = tr.now()
		entropy.Assess(r.gen.Sample(cands, r.opts.EntropyM, r.rng), r.clusterer)
		tr.record(lAssess, i, t)
	}
}

// query replays Hybrid.Query: parse and compile, optimize, execute,
// explain.
func (r *replayer) query(i int, text string) {
	tr := r.tr
	t := tr.now()
	stmt, err := sql.Parse(text)
	if err != nil {
		tr.record(lSQLCompile, i, t)
		return
	}
	cat := r.h.Catalog()
	node, err := sql.Compile(stmt, cat)
	tr.record(lSQLCompile, i, t)
	if err != nil {
		return
	}
	t = tr.now()
	opt := logical.Optimize(node, logical.CatalogStats(cat))
	tr.record(lOptimize, i, t)
	r.execute(i, opt)
}

func (r *replayer) execute(i int, opt *logical.Optimized) {
	tr := r.tr
	t := tr.now()
	_, run, err := r.h.Federation().ExecuteIR(opt)
	tr.record(lExecute, i, t)
	if err != nil {
		return
	}
	for _, f := range run.Fragments {
		r.rowsScanned += int64(f.ActScanned)
	}
	t = tr.now()
	federate.Explain(run)
	tr.record(lExplain, i, t)
}

// ingest times what an ingest leaves behind and replays its stages:
// the binding catalog the next ask rebuilds (timed right after the
// write, so that ask finds it built), the PageRank refresh, and table
// generation over the document.
func (r *replayer) ingest(i int, id, text string) {
	tr := r.tr
	t := tr.now()
	r.h.Federation().BindingCatalog()
	tr.record(lBindingCatalog, i, t)
	t = tr.now()
	r.h.Retriever().Refresh()
	tr.record(lRefresh, i, t)
	t = tr.now()
	r.extractor.ExtractDoc(id, text)
	tr.record(lExtract, i, t)
}

// layerTimes sums span durations per layer and the per-op remainder:
// an op's time minus the stages replayed from it. Stage spans never
// nest, so a stage's self time is its duration. The binding catalog
// span is work an ingest leaves to the next ask, not part of the
// ingest, so it is not subtracted from the ingest.
type layerTimes struct {
	total [nLayers]time.Duration
	calls [nLayers]int
	other time.Duration // Σ over ops of op time − replayed stage time
}

func summarize(spans []span) layerTimes {
	var lt layerTimes
	var opDur, stageDur time.Duration
	cur := int32(-1)
	flush := func() {
		if cur >= 0 {
			lt.other += opDur - stageDur
		}
		opDur, stageDur = 0, 0
	}
	for _, s := range spans {
		if s.op != cur {
			flush()
			cur = s.op
		}
		d := time.Duration(s.end - s.start)
		lt.total[s.layer] += d
		lt.calls[s.layer]++
		switch s.layer {
		case lOp:
			opDur += d
		case lBindingCatalog:
		default:
			stageDur += d
		}
	}
	flush()
	return lt
}

// writeReport prints per-layer self time for the traced loop.
func writeReport(w io.Writer, workload string, lt layerTimes, opTime time.Duration, overhead float64) {
	fmt.Fprintf(w, "per-layer self time, %s (traced loop; op time %.1f ms, tracing overhead: traced/untraced ops_per_s = %.3f)\n",
		workload, ms(opTime), overhead)
	fmt.Fprintf(w, "  %-26s %8s %12s %12s %10s\n", "layer", "calls", "total_ms", "mean_us", "of_op_time")
	for l := lRetrieve; l < nLayers; l++ {
		if lt.calls[l] == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-26s %8d %12.1f %12.1f %9.1f%%\n", layerNames[l], lt.calls[l],
			ms(lt.total[l]), us(lt.total[l])/float64(lt.calls[l]), 100*float64(lt.total[l])/float64(opTime))
	}
	fmt.Fprintf(w, "  %-26s %8s %12.1f %12s %9.1f%%\n", "core.other", "", ms(lt.other), "", 100*float64(lt.other)/float64(opTime))
}

// writeSpans writes every span as tab-separated values: op, layer,
// cause (the op span for stages), start and end in ns.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "op\tlayer\tcause\tstart_ns\tend_ns")
	for _, s := range spans {
		cause := "-"
		if s.layer != lOp {
			cause = "op"
		}
		fmt.Fprintf(bw, "%d\t%s\t%s\t%d\t%d\n", s.op, layerNames[s.layer], cause, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
