// Command benchmark measures the dualsim serving path: it builds its own
// fixture, starts the public Server in-process on a loopback listener,
// drives it with closed-loop clients, checks every answer and prints the
// metrics BENCHMARK.json declares. See README.md.
//
//	bash benchmark/run.sh --workload slow_disk --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --seed 1              # every workload, traced and not
//	bash benchmark/run.sh --seed 1 --repeat 2   # twice, compared against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

// The builder contract's caps: one run must end within runCapS, the whole
// set of runs within setCapS, and a time box is at most maxBoxS long.
const (
	runCapS        = 180
	setCapS        = 3420
	maxBoxS        = 60
	defaultSeconds = 20
)

// estimate is the planned cost of the parts of a run that the time box does
// not cover, in seconds, per tier: one set-up (build, open, serve, two
// warm-up cycles), the fixture with its reference counts, the layer
// micro-timings, and the longest cycle (a window stops at the end of the
// cycle in which its box expires). Measured on the 2-core sandbox and
// rounded up.
var estimate = map[string]struct{ setup, fixture, micro, cycle float64 }{
	tierSmoke:   {0.1, 0.1, 1, 0.1},
	tierDefault: {1.5, 0.5, 6, 0.6},
	tierLarge:   {10, 6, 20, 5},
}

// plannedSeconds is the wall time one run is planned to take.
func plannedSeconds(tier string, box float64, traced bool) float64 {
	e := estimate[tier]
	if traced {
		return e.fixture + e.setup + (tracedRefShare+tracedShare)*box + 2*e.cycle + e.micro
	}
	return e.fixture + setupRepeats*e.setup + box + e.cycle
}

// plannedSetSeconds is the wall time of repeat whole sets: every workload,
// untraced and traced.
func plannedSetSeconds(tier string, box float64, repeat int) float64 {
	one := plannedSeconds(tier, box, false) + plannedSeconds(tier, box, true)
	return float64(repeat*len(workloads)) * one
}

// document is what the full set prints: every workload, untraced and traced.
type document struct {
	Tier       string                  `json:"tier"`
	Seed       int64                   `json:"seed"`
	Seconds    float64                 `json:"seconds"`
	GoMaxProcs int                     `json:"gomaxprocs"`
	Workloads  map[string]*workloadDoc `json:"workloads"`
}

type workloadDoc struct {
	EndToEnd *runResult `json:"end_to_end"`
	PerLayer *runResult `json:"per_layer"`
}

func main() { os.Exit(run()) }

func run() int {
	workloadName := flag.String("workload", "", "run this workload only and print the contract's one-line result (default: all, as one document)")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", defaultSeconds, "time box of a run")
	trace := flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics of an untraced run, 1 the per-layer metrics of a traced one")
	tier := flag.String("tier", tierDefault, "fixture tier: smoke, default or large")
	repeat := flag.Int("repeat", 1, "without -workload: run the whole set this many times and compare the end-to-end metrics against their bounds")
	out := flag.String("out", "out", "directory for databases and traces")
	spec := flag.Bool("spec", false, "print the BENCHMARK.json this program declares and exit")
	flag.Parse()
	if *spec {
		return printJSON(benchmarkSpec(), true)
	}
	if _, ok := estimate[*tier]; !ok {
		return usage("unknown tier %q", *tier)
	}
	if *seconds < 1 || *seconds > maxBoxS {
		return usage("-seconds %g is outside [1, %d]", *seconds, maxBoxS)
	}
	if *trace != 0 && *trace != 1 {
		return usage("-trace %d (want 0 or 1)", *trace)
	}
	if *repeat < 1 || (*repeat > 1 && *workloadName != "") {
		return usage("-repeat compares whole sets; it needs a count of at least 1 and no -workload")
	}
	// The workloads are sized for two cores: more would let the generator
	// and the engines stop contending, fewer would serialize them.
	runtime.GOMAXPROCS(2)

	if *workloadName != "" {
		w := workloadByName(*workloadName)
		if w == nil {
			return usage("unknown workload %q", *workloadName)
		}
		planned := plannedSeconds(*tier, *seconds, *trace == 1)
		fmt.Fprintf(os.Stderr, "benchmark: %s, planned wall time %.0f s (cap %d s)\n", w.Name, planned, runCapS)
		if planned > runCapS {
			return usage("planned wall time %.0f s exceeds the %d s a run may take", planned, runCapS)
		}
		f, err := newFixture(*tier, *seed)
		if err != nil {
			return fail(err)
		}
		res, err := runWorkload(w, runConfig{fixture: f, dir: *out, box: boxOf(*seconds), traced: *trace == 1})
		if err != nil {
			return fail(err)
		}
		report(w.Name, res, *tier == tierDefault && *trace == 0)
		if code := printJSON(res.line(), false); code != 0 {
			return code
		}
		if !res.Correct {
			return 1
		}
		return 0
	}

	planned := plannedSetSeconds(*tier, *seconds, *repeat)
	fmt.Fprintf(os.Stderr, "benchmark: %d workloads x %d, planned wall time %.0f s (cap %d s)\n", len(workloads), *repeat, planned, setCapS)
	if planned > setCapS {
		return usage("planned wall time %.0f s exceeds the %d s the whole set may take", planned, setCapS)
	}
	var docs []*document
	correct := true
	for i := 0; i < *repeat; i++ {
		// Each set gets a seed of its own, as each of the driver's runs does.
		doc, ok, err := runSet(*tier, *seed+int64(i), *seconds, *out)
		if err != nil {
			return fail(err)
		}
		docs = append(docs, doc)
		correct = correct && ok
	}
	if *repeat == 1 {
		if code := printJSON(docs[0], true); code != 0 {
			return code
		}
	} else {
		cmp, within := compareSets(docs)
		if code := printJSON(map[string]any{"runs": docs, "comparison": cmp}, true); code != 0 {
			return code
		}
		if !within {
			fmt.Fprintln(os.Stderr, "benchmark: repeated sets differ by more than a bound")
			return 1
		}
	}
	if !correct {
		return 1
	}
	return 0
}

func boxOf(seconds float64) time.Duration { return time.Duration(seconds * float64(time.Second)) }

// runSet runs every workload untraced and traced on one fixture.
func runSet(tier string, seed int64, seconds float64, out string) (*document, bool, error) {
	f, err := newFixture(tier, seed)
	if err != nil {
		return nil, false, err
	}
	doc := &document{Tier: tier, Seed: seed, Seconds: seconds, GoMaxProcs: runtime.GOMAXPROCS(0), Workloads: map[string]*workloadDoc{}}
	correct := true
	for i := range workloads {
		w := &workloads[i]
		wd := &workloadDoc{}
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(w, runConfig{fixture: f, dir: out, box: boxOf(seconds), traced: traced})
			if err != nil {
				return nil, false, fmt.Errorf("%s: %w", w.Name, err)
			}
			report(w.Name, res, tier == tierDefault && !traced)
			correct = correct && res.Correct
			if traced {
				wd.PerLayer = res
			} else {
				wd.EndToEnd = res
			}
		}
		doc.Workloads[w.Name] = wd
	}
	return doc, correct, nil
}

// report writes what a reader of the log wants beside the numbers: wrong
// answers, and untraced default-tier windows that fell short of the sample
// floors the end-to-end medians and the p90 rest on.
func report(name string, res *runResult, floors bool) {
	for _, p := range res.Problems {
		fmt.Fprintf(os.Stderr, "benchmark: %s: WRONG: %s\n", name, p)
	}
	if !floors {
		return
	}
	if n := res.Samples["replies"]; !supportsPercentile(n, 0.90) {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %d replies, fewer than ten beyond the p90\n", name, n)
	}
	for _, class := range countClasses {
		if n := res.Samples[class]; n < 30 {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %d %s replies, under the 30 a median needs\n", name, n, class)
		}
	}
}

// comparison is one workload x end-to-end metric across repeated sets.
type comparison struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Values   []float64 `json:"values"`
	RelDiff  float64   `json:"rel_diff"`
	// Spread is the distance between the quartiles as a share of the
	// median, the steadiness figure the driver computes over ten runs;
	// reported from four sets up.
	Spread float64 `json:"spread,omitempty"`
	Bound  float64 `json:"bound"`
	Within bool    `json:"within"`
}

// compareSets sets every later set against the first: the relative
// difference of each end-to-end metric must stay inside the metric's bound.
func compareSets(docs []*document) ([]comparison, bool) {
	var out []comparison
	within := true
	for i := range workloads {
		name := workloads[i].Name
		for _, d := range endToEnd {
			c := comparison{Workload: name, Metric: d.Name, Bound: d.Bound, Within: true}
			for _, doc := range docs {
				c.Values = append(c.Values, doc.Workloads[name].EndToEnd.Metrics[d.Name].Value)
			}
			for _, v := range c.Values[1:] {
				c.RelDiff = math.Max(c.RelDiff, math.Abs(ratio(v-c.Values[0], c.Values[0])))
			}
			if len(c.Values) >= 4 {
				q1, q2, q3 := quartiles(c.Values)
				c.Spread = ratio(q3-q1, q2)
			}
			c.Within = c.RelDiff <= c.Bound
			within = within && c.Within
			out = append(out, c)
		}
	}
	return out, within
}

// benchmarkFile is the shape of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []workloadEntry `json:"workloads"`
	EndToEnd   []boundedEntry  `json:"end_to_end"`
	PerLayer   []metricEntry   `json:"per_layer"`
}

type workloadEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricEntry struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type boundedEntry struct {
	metricEntry
	Bound float64 `json:"bound"`
}

// benchmarkSpec is BENCHMARK.json as this program declares it.
func benchmarkSpec() benchmarkFile {
	b := benchmarkFile{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, workloadEntry{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		b.EndToEnd = append(b.EndToEnd, boundedEntry{metricEntry{d.Name, d.Unit, d.Better}, d.Bound})
	}
	for _, d := range perLayer {
		b.PerLayer = append(b.PerLayer, metricEntry{d.Name, d.Unit, d.Better})
	}
	return b
}

// printJSON writes v to standard output, on one line unless indent.
func printJSON(v any, indent bool) int {
	enc := json.NewEncoder(os.Stdout)
	if indent {
		enc.SetIndent("", "  ")
	}
	if err := enc.Encode(v); err != nil {
		return fail(err)
	}
	return 0
}

func usage(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	return 2
}

func fail(err error) int {
	fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	return 1
}
