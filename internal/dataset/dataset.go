// Package dataset is the registry of synthetic stand-ins for the eight
// real-world graphs in the paper's Table 1 (WebGoogle, WikiTalk, USPatents,
// LiveJournal, Orkut, Wikipedia, Friendster, Yahoo). Each spec records the
// paper's statistics for documentation and generates a deterministic,
// laptop-scale graph whose character (degree skew, clustering, bipartite
// structure, relative size) matches its namesake. The Scale knob grows or
// shrinks every dataset together.
package dataset

import (
	"fmt"
	"strings"

	"dualsim/internal/gen"
	"dualsim/internal/graph"
)

// Spec describes one dataset stand-in.
type Spec struct {
	// Name is the paper's two-letter code (WG, WT, ...).
	Name string
	// LongName is the dataset's full name in the paper.
	LongName string
	// Kind describes the generator family used.
	Kind string
	// PaperVertices and PaperEdges are the real dataset's statistics
	// (Table 1), recorded for EXPERIMENTS.md.
	PaperVertices, PaperEdges uint64
	// Generate builds the stand-in at a relative scale (1.0 = default,
	// benchmarks may shrink or grow it).
	Generate func(scale float64) *graph.Graph
}

func scaled(base int, scale float64) int {
	n := max(int(float64(base)*scale), 16)
	return n
}

// Registry returns the eight stand-ins in the paper's Table 1 order.
func Registry() []Spec {
	return []Spec{
		{
			Name: "WG", LongName: "WebGoogle", Kind: "R-MAT web graph",
			PaperVertices: 875_713, PaperEdges: 4_322_051,
			Generate: func(s float64) *graph.Graph {
				m := scaled(24_000, s)
				return gen.RMAT(12, m, 0.57, 0.19, 0.19, 101)
			},
		},
		{
			Name: "WT", LongName: "WikiTalk", Kind: "Chung-Lu, heavy skew",
			PaperVertices: 2_394_385, PaperEdges: 4_659_565,
			Generate: func(s float64) *graph.Graph {
				n := scaled(4_000, s)
				return gen.ChungLu(n, 6*n, 2.1, 102)
			},
		},
		{
			Name: "UP", LongName: "USPatents", Kind: "Erdős–Rényi, low clustering",
			PaperVertices: 3_774_768, PaperEdges: 16_518_947,
			Generate: func(s float64) *graph.Graph {
				n := scaled(6_000, s)
				return gen.ErdosRenyi(n, 5*n, 103)
			},
		},
		{
			Name: "LJ", LongName: "LiveJournal", Kind: "Barabási–Albert",
			PaperVertices: 4_846_609, PaperEdges: 42_851_237,
			Generate: func(s float64) *graph.Graph {
				n := scaled(4_000, s)
				return gen.BarabasiAlbert(n, 9, 104)
			},
		},
		{
			Name: "OK", LongName: "Orkut", Kind: "Barabási–Albert, dense",
			PaperVertices: 3_072_441, PaperEdges: 117_184_899,
			Generate: func(s float64) *graph.Graph {
				n := scaled(3_000, s)
				return gen.BarabasiAlbert(n, 14, 105)
			},
		},
		{
			Name: "WP", LongName: "Wikipedia", Kind: "bipartite",
			PaperVertices: 25_921_548, PaperEdges: 266_769_613,
			Generate: func(s float64) *graph.Graph {
				n := scaled(2_500, s)
				return gen.Bipartite(n, n, 10*n, 106)
			},
		},
		{
			Name: "FR", LongName: "Friendster", Kind: "Chung-Lu power law",
			PaperVertices: 65_608_366, PaperEdges: 1_806_067_135,
			Generate: func(s float64) *graph.Graph {
				n := scaled(6_000, s)
				return gen.ChungLu(n, 8*n, 2.4, 107)
			},
		},
		{
			Name: "YH", LongName: "Yahoo", Kind: "Chung-Lu, largest",
			PaperVertices: 1_413_511_394, PaperEdges: 6_636_600_779,
			Generate: func(s float64) *graph.Graph {
				n := scaled(10_000, s)
				return gen.ChungLu(n, 7*n, 2.2, 108)
			},
		},
	}
}

// ByName returns the spec with the given short or long name.
func ByName(name string) (Spec, error) {
	for _, s := range Registry() {
		if strings.EqualFold(s.Name, name) || strings.EqualFold(s.LongName, name) {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("dataset: unknown dataset %q (want WG, WT, UP, LJ, OK, WP, FR, YH)", name)
}

// Names returns the short codes in registry order.
func Names() []string {
	specs := Registry()
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}
