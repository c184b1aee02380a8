// Triangles: compute the global clustering coefficient of a graph with
// disk-based triangle enumeration — one of the paper's motivating
// applications (triangle enumeration underlies clustering-coefficient
// computation and community detection).
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"dualsim"
	"dualsim/internal/dataset"
)

func main() {
	dir, err := os.MkdirTemp("", "dualsim-triangles-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// The LiveJournal stand-in at a laptop-friendly scale.
	spec, err := dataset.ByName("LJ")
	if err != nil {
		log.Fatal(err)
	}
	g := spec.Generate(0.3)
	fmt.Printf("dataset %s (%s): %d vertices, %d edges\n",
		spec.Name, spec.Kind, g.NumVertices(), g.NumEdges())

	dbPath := filepath.Join(dir, "lj.db")
	if _, err := dualsim.BuildFromEdges(dbPath, g.NumVertices(), g.EdgeList(), dualsim.BuildOptions{TempDir: dir}); err != nil {
		log.Fatal(err)
	}
	db, err := dualsim.Open(dbPath)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	eng, err := db.NewEngine(dualsim.Options{BufferFraction: 0.15})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	// Triangle count via the dual approach.
	res, err := eng.Run(dualsim.Triangle())
	if err != nil {
		log.Fatal(err)
	}
	triangles := res.Count

	// Wedge (open or closed triple) count: the 3-vertex path's occurrences,
	// sum over v of C(d(v), 2), from the same engine.
	wres, err := eng.Run(dualsim.Path("wedge", 3))
	if err != nil {
		log.Fatal(err)
	}
	wedges := wres.Count

	// Global clustering coefficient: 3*triangles / wedges.
	cc := 3 * float64(triangles) / float64(wedges)
	fmt.Printf("triangles:  %d (found in %v, %d page reads)\n", triangles, res.ExecTime.Round(0), res.PhysicalReads)
	fmt.Printf("wedges:     %d\n", wedges)
	fmt.Printf("clustering: %.4f\n", cc)
}
