package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/slm"
	"repro/internal/store"
	"repro/internal/table"
	"repro/internal/workload"
)

// opKind is the public entry point an operation calls.
type opKind uint8

const (
	opAsk    opKind = iota // Hybrid.Answer, an NL question
	opSQL                  // Hybrid.Query, a SQL SELECT
	opIngest               // Hybrid.Ingest, one new review document
)

// op is one generated operation with its expected outcome.
type op struct {
	kind  opKind
	text  string          // question, SQL statement or document text
	id    string          // document id of an ingest
	want  string          // expected answer text of an ask
	rows  [][]table.Value // expected result rows of a SQL query
	class int             // index into inputs.classes, for diagnostics
}

// inputs is everything a workload generates from its seed.
type inputs struct {
	build   func() (*core.Hybrid, error) // loads the sources and builds a system
	ner     *slm.NER                     // recognizer the systems are built with
	warm    []op                         // repeated, untimed, before the loop
	ops     []op                         // one episode: the loop runs whole episodes
	classes []string                     // names of op.class values
	// block is the ops in one rate window. An episode is whole blocks,
	// and every block holds the same mix.
	block int
	// fresh says that every episode after the first runs on a newly
	// built system. A workload whose ops write sets it, so that running
	// more episodes in the same time never grows the state an op sees.
	fresh bool
	// verify runs after the timed loop over the last episode's system;
	// it returns the checks attempted and failed. Nil when the loop's
	// per-op checks are the whole gate.
	verify func(h *core.Hybrid) (attempted, failed int, err error)
}

// workloadDef names a workload and generates its inputs.
type workloadDef struct {
	name    string
	prepare func(seed int64) (*inputs, error)
}

var workloads = []workloadDef{
	{name: "ask-large", prepare: askLarge},
	{name: "sql-scan", prepare: sqlScan},
	{name: "ingest-ask", prepare: ingestAsk},
}

// largeCorpus is the ask-large corpus: 1061 documents at seed 42,
// about 4.9k graph nodes and 29k edges.
func largeCorpus(seed int64) *workload.Corpus {
	opts := workload.DefaultECommerceOptions()
	opts.Products = 48
	opts.ReviewsPerProduct = 12
	opts.Noise = 0.6
	opts.Seed = uint64(seed)
	return workload.ECommerce(opts)
}

// corpusSystem generates the corpus for seed and returns a builder
// over it. extra documents, if any, are added to the reviews source
// first, as if they had been part of the corpus from the start.
func corpusSystem(seed int64, extra []op) (build func() (*core.Hybrid, error), c *workload.Corpus, ner *slm.NER, err error) {
	c = largeCorpus(seed)
	ner = slm.NewNER()
	c.Register(ner)
	if len(extra) > 0 {
		reviews := textSource(c.Sources, ingestSource)
		if reviews == nil {
			return nil, nil, nil, fmt.Errorf("corpus has no reviews source")
		}
		for _, o := range extra {
			reviews.Add(o.id, o.text)
		}
	}
	// The defaults are what unisem.DefaultOptions builds: answer cache
	// off, every core for build parallelism.
	build = func() (*core.Hybrid, error) { return core.NewHybrid(c.Sources, ner, core.DefaultHybridOptions()) }
	return build, c, ner, nil
}

// ingestSource is the text source ingested reviews join.
const ingestSource = "reviews"

func textSource(m *store.Multi, name string) *store.TextStore {
	for _, s := range m.Sources() {
		if ts, ok := s.(*store.TextStore); ok && ts.Name() == name {
			return ts
		}
	}
	return nil
}

// schedule returns n class ids in blocks of sum(weights) ids. Each
// block holds exactly weights[c] ids of class c, in a shuffled order
// that is the same at every seed; a final partial block takes classes
// by largest remainder. Exact proportions keep the mix, and so the
// latency percentiles, the same at every seed and in every block, so
// block rates are comparable; a fixed order keeps the code path, down
// to which asks hit the plan cache, the same too. The seed changes only
// the data.
func schedule(weights []int, n int) []int {
	rng := rand.New(rand.NewSource(1))
	block := 0
	for _, w := range weights {
		block += w
	}
	out := make([]int, 0, n)
	for len(out) < n {
		ids := mix(weights, min(block, n-len(out)))
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		out = append(out, ids...)
	}
	return out
}

// mix returns n class ids, each class appearing in proportion to its
// weight, rounded by largest remainder.
func mix(weights []int, n int) []int {
	total := 0
	for _, w := range weights {
		total += w
	}
	counts := make([]int, len(weights))
	type rem struct{ class, r int }
	rems := make([]rem, len(weights))
	given := 0
	for i, w := range weights {
		counts[i] = n * w / total
		given += counts[i]
		rems[i] = rem{i, n * w % total}
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].r > rems[b].r })
	for i := 0; given < n; i++ {
		counts[rems[i].class]++
		given++
	}
	out := make([]int, 0, n)
	for class, k := range counts {
		for j := 0; j < k; j++ {
			out = append(out, class)
		}
	}
	return out
}

// askClass groups gold questions by the latency mode they answer in.
type askClass struct {
	name   string
	match  func(q workload.Query) bool
	weight int
}

var (
	isTotal   = func(q workload.Query) bool { return q.Class == workload.ClassAggregate }
	isRating  = func(q workload.Query) bool { return q.Class == workload.ClassCrossModal }
	isRevenue = func(q workload.Query) bool { return q.Class == workload.ClassSingleLookup }
	isJoin    = func(q workload.Query) bool { return q.Class == workload.ClassCrossModalJoin }
	isCompare = func(q workload.Query) bool { return q.Class == workload.ClassComparative }
)

// askLargeClasses is the ask-large mix, ordered fastest first. Each
// reported percentile must sit inside one latency mode: the faster
// total-revenue aggregate fills the bottom quarter, so the median falls
// in the middle of the rating questions' mode, and the comparison, the
// slowest question, holds the top tenth and with it p99.
var askLargeClasses = []askClass{
	{"total", isTotal, 25},
	{"rating", isRating, 50},
	{"join", isJoin, 5},
	{"revenue", isRevenue, 10},
	{"compare", isCompare, 10},
}

// askOps draws n asks over the gold questions: classes weighted per
// classes, each class cycling through its questions so every question
// of a class is asked equally often.
func askOps(queries []workload.Query, classes []askClass, n int) ([]op, []string, error) {
	byClass := make([][]workload.Query, len(classes))
	weights := make([]int, len(classes))
	names := make([]string, len(classes))
	for i, cl := range classes {
		for _, q := range queries {
			if cl.match(q) {
				byClass[i] = append(byClass[i], q)
			}
		}
		if len(byClass[i]) == 0 {
			return nil, nil, fmt.Errorf("no gold question of class %s", cl.name)
		}
		weights[i], names[i] = cl.weight, cl.name
	}
	ops := make([]op, 0, n)
	next := make([]int, len(classes))
	for _, class := range schedule(weights, n) {
		qs := byClass[class]
		q := qs[next[class]%len(qs)]
		next[class]++
		ops = append(ops, op{kind: opAsk, text: q.Text, want: q.Gold, class: class})
	}
	return ops, names, nil
}

// goldOps asks every gold question once.
func goldOps(queries []workload.Query) []op {
	out := make([]op, len(queries))
	for i, q := range queries {
		out[i] = op{kind: opAsk, text: q.Text, want: q.Gold}
	}
	return out
}

// askLarge's episode is one block of asks; the questions only read, so
// every episode runs on the same system.
func askLarge(seed int64) (*inputs, error) {
	build, c, ner, err := corpusSystem(seed, nil)
	if err != nil {
		return nil, err
	}
	block := 0
	for _, cl := range askLargeClasses {
		block += cl.weight
	}
	ops, classes, err := askOps(c.Queries, askLargeClasses, block)
	if err != nil {
		return nil, err
	}
	return &inputs{build: build, ner: ner, warm: goldOps(c.Queries), ops: ops, classes: classes, block: block}, nil
}

// ingestAskClasses are the questions ingest-ask asks: the gold
// questions whose answers the ingested reviews cannot change (the
// reviews are of products the questions do not name, and carry no
// sales figures). As in ask-large, the total-revenue aggregate fills
// the bottom of the warm asks so the median falls mid rating mode.
var ingestAskClasses = []askClass{
	{"total", isTotal, 1},
	{"rating", isRating, 2},
}

// asksPerIngest is the number of asks after each ingest. The first ask
// after a write pays for the write's invalidations, so a sixth of the
// asks are post-write: p99 sits in the post-write mode, and the median
// near the middle of the warm mode, where the mode check passes.
const asksPerIngest = 6

// blockCycles is the ingest cycles in one rate window: enough that its
// warm and post-write asks are each whole blocks of the 1:2 ask mix.
const blockCycles = 15

// episodeCycles is the ingest cycles in one ingest-ask episode, four
// blocks. Each episode starts from a freshly built system, so every
// episode grows the corpus by the same documents.
const episodeCycles = 4 * blockCycles

// goldProducts is how many leading products the gold questions name;
// ingested reviews go to the others.
const goldProducts = 6

var reviewAspects = []string{
	"Shipping was quick", "The battery lasts all day", "Setup took minutes",
	"Support answered promptly", "The finish marks easily", "Great value for the price",
}

func ingestAsk(seed int64) (*inputs, error) {
	build, c, ner, err := corpusSystem(seed, nil)
	if err != nil {
		return nil, err
	}
	products := c.Vocab()["product"]
	if len(products) <= goldProducts {
		return nil, fmt.Errorf("corpus has %d products, need more than %d", len(products), goldProducts)
	}
	rng := rand.New(rand.NewSource(seed))
	cycles := episodeCycles
	warmAsks, classes, err := askOps(c.Queries, ingestAskClasses, cycles*(asksPerIngest-1))
	if err != nil {
		return nil, err
	}
	postWrite, _, err := askOps(c.Queries, ingestAskClasses, cycles)
	if err != nil {
		return nil, err
	}
	classes = append(classes, "post-write", "ingest")
	for i := range postWrite {
		postWrite[i].class = len(classes) - 2
	}
	ops := make([]op, 0, cycles*(1+asksPerIngest))
	var ingested []op
	for i := 0; i < cycles; i++ {
		p := products[goldProducts+rng.Intn(len(products)-goldProducts)]
		doc := op{
			kind:  opIngest,
			id:    fmt.Sprintf("bench-review-%d", i),
			text:  fmt.Sprintf("Customer C-%d rated %s %d stars. %s.", 900000+i, p, 1+rng.Intn(5), reviewAspects[rng.Intn(len(reviewAspects))]),
			class: len(classes) - 1,
		}
		ops = append(ops, doc)
		ingested = append(ingested, doc)
		ops = append(ops, postWrite[i])
		ops = append(ops, warmAsks[i*(asksPerIngest-1):(i+1)*(asksPerIngest-1)]...)
	}
	// Incremental ≡ rebuild: after the loop, every gold question must
	// answer on the last episode's system as it does on a system built
	// over the corpus plus every document one episode ingests.
	verify := func(h *core.Hybrid) (int, int, error) {
		rebuild, _, _, err := corpusSystem(seed, ingested)
		if err != nil {
			return 0, 0, err
		}
		ref, err := rebuild()
		if err != nil {
			return 0, 0, err
		}
		failed := 0
		for _, q := range c.Queries {
			got, want := h.Answer(q.Text), ref.Answer(q.Text)
			if got.Err != nil || got.Text != want.Text {
				failed++
			}
		}
		return len(c.Queries), failed, nil
	}
	return &inputs{build: build, ner: ner, warm: goldOps(c.Queries), ops: ops, classes: classes,
		block: blockCycles * (1 + asksPerIngest), fresh: true, verify: verify}, nil
}

// --- sql-scan ---

const (
	factRows     = 20000
	sqlProducts  = 200
	sqlCategory  = 12
	sqlParamSets = 4 // distinct literals per query shape; plans cache after the first of each
)

var regions = []string{"central", "coastal", "east", "mountain", "north", "plains", "south", "west"}

type fact struct {
	id, day, qty, amount int64
	region, product      string
}

// sqlClasses is the sql-scan mix, weighted so the median sits in the
// filter + group-by mode and p99 in the ORDER BY + LIMIT mode.
var sqlClasses = []struct {
	name   string
	weight int
}{
	{"filter+group", 70}, {"join+group", 10}, {"order+limit", 10}, {"lookup", 10},
}

// sqlScan's episode is one block of statements, all reads.
func sqlScan(seed int64) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	price := make([]int64, sqlProducts)
	category := make(map[string]string, sqlProducts)
	var dims strings.Builder
	dims.WriteString("product,category\n")
	for i := range price {
		price[i] = int64(5 + rng.Intn(95))
		name := fmt.Sprintf("P-%03d", i)
		category[name] = fmt.Sprintf("cat-%02d", rng.Intn(sqlCategory))
		fmt.Fprintf(&dims, "%s,%s\n", name, category[name])
	}
	facts := make([]fact, factRows)
	var csv strings.Builder
	csv.WriteString("id,region,product,day,qty,amount\n")
	for i := range facts {
		p := rng.Intn(sqlProducts)
		f := fact{id: int64(i + 1), day: int64(rng.Intn(365)), qty: int64(1 + rng.Intn(50)),
			region: regions[rng.Intn(len(regions))], product: fmt.Sprintf("P-%03d", p)}
		f.amount = f.qty * price[p]
		facts[i] = f
		fmt.Fprintf(&csv, "%d,%s,%s,%d,%d,%d\n", f.id, f.region, f.product, f.day, f.qty, f.amount)
	}
	factCSV, dimCSV := csv.String(), dims.String()
	build := func() (*core.Hybrid, error) {
		// What System.AddCSV and System.Build do.
		cat := table.NewCatalog()
		for _, src := range []struct{ name, csv string }{{"facts", factCSV}, {"dims", dimCSV}} {
			t, err := table.ReadCSV(src.name, strings.NewReader(src.csv), nil)
			if err != nil {
				return nil, err
			}
			cat.Put(t)
		}
		return core.NewHybrid(store.NewMulti().Add(store.NewRelationalStore("db", cat)), slm.NewNER(), core.DefaultHybridOptions())
	}

	// Each shape gets sqlParamSets literal variants; ops cycle over them.
	// The range literals are fixed so every seed scans, joins and sorts
	// the same shares of the table; the seed changes only the data.
	shapes := make([][]op, len(sqlClasses))
	for v := int64(0); v < sqlParamSets; v++ {
		shapes[0] = append(shapes[0], filterGroup(facts, 120+60*v))
		shapes[1] = append(shapes[1], joinGroup(facts, category, 60*v))
		shapes[2] = append(shapes[2], orderLimit(facts, 10+10*v))
		shapes[3] = append(shapes[3], lookup(facts, int64(1+rng.Intn(factRows))))
	}
	weights := make([]int, len(sqlClasses))
	classes := make([]string, len(sqlClasses))
	var warm []op
	block := 0
	for i, c := range sqlClasses {
		weights[i], classes[i] = c.weight, c.name
		block += c.weight
		for j := range shapes[i] {
			shapes[i][j].class = i
		}
		warm = append(warm, shapes[i]...)
	}
	ops := make([]op, 0, block)
	next := make([]int, len(sqlClasses))
	for _, class := range schedule(weights, block) {
		ops = append(ops, shapes[class][next[class]%sqlParamSets])
		next[class]++
	}
	return &inputs{build: build, ner: slm.NewNER(), warm: warm, ops: ops, classes: classes, block: block}, nil
}

func filterGroup(facts []fact, dayBelow int64) op {
	sum := map[string]int64{}
	for _, f := range facts {
		if f.day < dayBelow {
			sum[f.region] += f.qty
		}
	}
	return op{kind: opSQL,
		text: fmt.Sprintf("SELECT region, SUM(qty) AS total FROM facts WHERE day < %d GROUP BY region ORDER BY region", dayBelow),
		rows: groupedRows(sum)}
}

func joinGroup(facts []fact, category map[string]string, dayFrom int64) op {
	sum := map[string]int64{}
	for _, f := range facts {
		if f.day >= dayFrom {
			sum[category[f.product]] += f.amount
		}
	}
	return op{kind: opSQL,
		text: fmt.Sprintf("SELECT category, SUM(amount) AS total FROM facts JOIN dims ON facts.product = dims.product WHERE day >= %d GROUP BY category ORDER BY category", dayFrom),
		rows: groupedRows(sum)}
}

func orderLimit(facts []fact, qtyAbove int64) op {
	var hit []fact
	for _, f := range facts {
		if f.qty > qtyAbove {
			hit = append(hit, f)
		}
	}
	sort.Slice(hit, func(i, j int) bool {
		if hit[i].amount != hit[j].amount {
			return hit[i].amount > hit[j].amount
		}
		return hit[i].id < hit[j].id
	})
	const limit = 10
	o := op{kind: opSQL,
		text: fmt.Sprintf("SELECT id, amount FROM facts WHERE qty > %d ORDER BY amount DESC, id LIMIT %d", qtyAbove, limit)}
	for _, f := range hit[:min(limit, len(hit))] {
		o.rows = append(o.rows, []table.Value{table.I(f.id), table.I(f.amount)})
	}
	return o
}

func lookup(facts []fact, id int64) op {
	f := facts[id-1]
	return op{kind: opSQL,
		text: fmt.Sprintf("SELECT region, qty, amount FROM facts WHERE id = %d", id),
		rows: [][]table.Value{{table.S(f.region), table.I(f.qty), table.I(f.amount)}}}
}

// groupedRows renders key → sum as rows ordered by key.
func groupedRows(sum map[string]int64) [][]table.Value {
	keys := make([]string, 0, len(sum))
	for k := range sum {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rows := make([][]table.Value, len(keys))
	for i, k := range keys {
		rows[i] = []table.Value{table.S(k), table.I(sum[k])}
	}
	return rows
}

// rowsEqual compares a result table with the expected rows; numerics
// compare by value across int and float.
func rowsEqual(t *table.Table, want [][]table.Value) bool {
	if t == nil || len(t.Rows) != len(want) {
		return false
	}
	for i, row := range t.Rows {
		if len(row) != len(want[i]) {
			return false
		}
		for j, v := range row {
			if table.Compare(v, want[i][j]) != 0 {
				return false
			}
		}
	}
	return true
}
